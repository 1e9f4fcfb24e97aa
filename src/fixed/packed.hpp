/**
 * @file
 * Packed storage formats for the quantized K/V SRAM lanes.
 *
 * A quantized input word carries intBits + fracBits + 1 bits (sign
 * included), which for every deployable configuration is far below the
 * 32 bits the legacy one-word-per-lane layout spends on it. Packing
 * the words densely — two bytes per lane, one byte per lane, or two
 * 4-bit lanes per byte — shrinks the bound K/V footprint 2-8x: what
 * the SessionCache byte budget, the sharded streaming volume, and the
 * memory-bound hot loops actually pay for. The paper's default
 * i = f = 4 is a 9-bit word, so it lands on the int16 lane.
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

/**
 * Storage layout of the quantized key/value lanes. The enumerator
 * values are the layout bytes of shard images and BindShard frames,
 * so new layouts are appended, never inserted.
 */
enum class PackedKvFormat {
    Auto,    ///< narrowest lossless lane for the input format
    Word32,  ///< legacy layout: one int32 word per lane
    Int8,    ///< one byte per lane (input word <= 8 bits)
    Int4,    ///< two nibble lanes per byte (input word <= 4 bits)
    Int16,   ///< two bytes per lane (input word <= 16 bits)
};

/** Stable lowercase name ("auto", "word32", "int8", "int4", "int16"). */
const char *packedKvFormatName(PackedKvFormat format);

/** Lane width in bits (32 / 16 / 8 / 4); 0 for Auto. */
int packedKvLaneBits(PackedKvFormat format);

/**
 * Whether the packed lane `format` can carry a Q(intBits).(fracBits)
 * task of `dims` columns: the input word (intBits + fracBits + 1
 * bits) fits the lane, and the packed kernels' int32 arithmetic
 * cannot overflow — the dot-product format (2i + ceil(log2 d), 2f)
 * fits 32 bits, and so does every axpy product w * x (a weight of at
 * most 2^(2f) times a lane of magnitude below 2^(i+f), so
 * i + 3f <= 31). Word32 runs on int64 loops and always qualifies;
 * Auto never does.
 */
bool packedKvLaneHolds(PackedKvFormat format, int intBits, int fracBits,
                       std::size_t dims);

/**
 * Resolve the storage layout for a `dims`-column task with input
 * format intBits.fracBits: Auto picks the narrowest lane that
 * packedKvLaneHolds(), falling back to Word32; an explicit request
 * resolves to itself. An explicit packed request the lane cannot
 * hold is a user error and fatal()s — packing never requantizes, so
 * a too-narrow lane cannot be honored.
 */
PackedKvFormat resolvePackedKvFormat(PackedKvFormat requested,
                                     int intBits, int fracBits,
                                     std::size_t dims);

/**
 * resolvePackedKvFormat() for untrusted input (spill images, wire
 * configs): returns Auto where resolvePackedKvFormat() would fatal().
 */
PackedKvFormat tryResolvePackedKvFormat(PackedKvFormat requested,
                                        int intBits, int fracBits,
                                        std::size_t dims);

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
