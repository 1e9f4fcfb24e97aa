#include "fixed/packed.hpp"

#include "fixed/pipeline_formats.hpp"
#include "util/logging.hpp"

namespace a3 {

const char *
packedKvFormatName(PackedKvFormat format)
{
    switch (format) {
    case PackedKvFormat::Auto:
        return "auto";
    case PackedKvFormat::Word32:
        return "word32";
    case PackedKvFormat::Int8:
        return "int8";
    case PackedKvFormat::Int4:
        return "int4";
    case PackedKvFormat::Int16:
        return "int16";
    }
    panic("unreachable PackedKvFormat");
}

int
packedKvLaneBits(PackedKvFormat format)
{
    switch (format) {
    case PackedKvFormat::Auto:
        return 0;
    case PackedKvFormat::Word32:
        return 32;
    case PackedKvFormat::Int8:
        return 8;
    case PackedKvFormat::Int4:
        return 4;
    case PackedKvFormat::Int16:
        return 16;
    }
    panic("unreachable PackedKvFormat");
}

bool
packedKvLaneHolds(PackedKvFormat format, int intBits, int fracBits,
                  std::size_t dims)
{
    if (format == PackedKvFormat::Word32)
        return true;
    if (format == PackedKvFormat::Auto || intBits < 1 || fracBits < 1 ||
        dims == 0)
        return false;
    const FixedFormat dot{2 * intBits + ceilLog2(dims), 2 * fracBits};
    return intBits + fracBits + 1 <= packedKvLaneBits(format) &&
           dot.totalBits() <= 32 && intBits + 3 * fracBits <= 31;
}

PackedKvFormat
tryResolvePackedKvFormat(PackedKvFormat requested, int intBits,
                         int fracBits, std::size_t dims)
{
    if (requested != PackedKvFormat::Auto)
        return packedKvLaneHolds(requested, intBits, fracBits, dims)
                   ? requested
                   : PackedKvFormat::Auto;
    for (PackedKvFormat lane : {PackedKvFormat::Int4, PackedKvFormat::Int8,
                                PackedKvFormat::Int16})
        if (packedKvLaneHolds(lane, intBits, fracBits, dims))
            return lane;
    return PackedKvFormat::Word32;
}

PackedKvFormat
resolvePackedKvFormat(PackedKvFormat requested, int intBits,
                      int fracBits, std::size_t dims)
{
    const PackedKvFormat resolved =
        tryResolvePackedKvFormat(requested, intBits, fracBits, dims);
    if (resolved != PackedKvFormat::Auto)
        return resolved;
    const int word = intBits + fracBits + 1;
    const int lane = packedKvLaneBits(requested);
    if (word > lane) {
        fatal("packed K/V format ", packedKvFormatName(requested),
              " cannot hold a Q", intBits, ".", fracBits,
              " input word: ", word, " bits exceed the ", lane,
              "-bit packed lane (packing is lossless; widen the lane "
              "or narrow the format)");
    }
    fatal("packed K/V format ", packedKvFormatName(requested),
          " cannot serve a Q", intBits, ".", fracBits, " task of ",
          dims, " columns: the packed kernels' int32 dot or axpy "
          "arithmetic would overflow; use PackedKvFormat::Word32");
}

std::size_t
packedRowBytes(PackedKvFormat format, std::size_t dims)
{
    switch (format) {
    case PackedKvFormat::Auto:
        panic("packedRowBytes requires a resolved format");
    case PackedKvFormat::Word32:
        return dims * sizeof(std::int32_t);
    case PackedKvFormat::Int16:
        return dims * sizeof(std::int16_t);
    case PackedKvFormat::Int8:
        return dims;
    case PackedKvFormat::Int4:
        return (dims + 1) / 2;
    }
    panic("unreachable PackedKvFormat");
}

}  // namespace a3
