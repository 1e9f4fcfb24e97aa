/**
 * @file
 * Packed storage formats for the quantized K/V SRAM lanes.
 *
 * A quantized input word carries intBits + fracBits + 1 bits (sign
 * included), which for every deployable configuration is far below the
 * 32 bits the legacy one-word-per-lane layout spends on it. Packing
 * the words densely — one byte per lane, or two 4-bit lanes per byte
 * — shrinks the bound K/V footprint 4-8x: what the SessionCache
 * byte budget, the sharded streaming volume, and the memory-bound hot
 * loops actually pay for.
 *
 * Packing is always lossless: a lane stores the exact two's-complement
 * quantized word, so the packed pipelines are bit-identical to the
 * int32-word pipeline. Quantization is symmetric (FixedFormat's range
 * is [-maxRaw, maxRaw]) with one scale, the input format's
 * resolution, so the lanes carry no per-row metadata.
 */

#ifndef A3_FIXED_PACKED_HPP
#define A3_FIXED_PACKED_HPP

#include <cstddef>
#include <cstdint>

namespace a3 {

/** Storage layout of the quantized key/value lanes. */
enum class PackedKvFormat {
    Auto,    ///< narrowest lossless lane for the input format
    Word32,  ///< legacy layout: one int32 word per lane
    Int8,    ///< one byte per lane (input word <= 8 bits)
    Int4,    ///< two nibble lanes per byte (input word <= 4 bits)
};

/** Stable lowercase name ("auto", "word32", "int8", "int4"). */
const char *packedKvFormatName(PackedKvFormat format);

/** Lane width in bits (32 / 8 / 4); 0 for Auto. */
int packedKvLaneBits(PackedKvFormat format);

/**
 * Resolve the storage layout for an input format of intBits.fracBits:
 * Auto picks the narrowest lane the word fits losslessly; an explicit
 * Int8/Int4 request whose input word (intBits + fracBits + 1) exceeds
 * the lane width is a user error and fatal()s — packing never
 * requantizes, so a too-narrow lane cannot be honored.
 */
PackedKvFormat resolvePackedKvFormat(PackedKvFormat requested,
                                     int intBits, int fracBits);

/** Bytes one packed row of `dims` lanes occupies in `format`. */
std::size_t packedRowBytes(PackedKvFormat format, std::size_t dims);

/**
 * Nibble layout: element 2k lives in the low nibble and element 2k+1
 * in the high nibble of byte k; a trailing odd element leaves the high
 * nibble zero. Nibbles are two's complement, so lanes span [-8, 7]
 * (the symmetric quantizer only ever produces [-7, 7]).
 */
inline std::uint8_t
packNibblePair(std::int8_t low, std::int8_t high)
{
    return static_cast<std::uint8_t>((low & 0xF) |
                                     ((high & 0xF) << 4));
}

/**
 * Sign-extended low-nibble lane of a packed byte. The xor-sub form
 * ((v ^ 8) - 8 over the 4-bit value) is the same sign extension the
 * SIMD nibble paths use.
 */
inline std::int8_t
unpackNibbleLow(std::uint8_t byte)
{
    return static_cast<std::int8_t>(((byte & 0xF) ^ 8) - 8);
}

/** Sign-extended high-nibble lane of a packed byte. */
inline std::int8_t
unpackNibbleHigh(std::uint8_t byte)
{
    return static_cast<std::int8_t>(((byte >> 4) ^ 8) - 8);
}

}  // namespace a3

#endif  // A3_FIXED_PACKED_HPP
