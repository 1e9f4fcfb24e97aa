#include "fixed/value.hpp"

#include "util/logging.hpp"

namespace a3 {

FixedValue
FixedValue::fromDouble(double value, FixedFormat fmt)
{
    return {fmt.quantize(value), fmt};
}

FixedValue
mulFull(const FixedValue &a, const FixedValue &b)
{
    FixedFormat out{a.fmt.intBits + b.fmt.intBits,
                    a.fmt.fracBits + b.fmt.fracBits};
    // Messages that format a FixedFormat are built only on failure:
    // mulFull runs once per element on the Word32 output lane.
    if (out.totalBits() > 63)
        panic("assertion failed: mulFull result too wide: ", out.str());
    FixedValue result{a.raw * b.raw, out};
    a3Assert(out.fits(result.raw), "mulFull overflow despite width rule");
    return result;
}

FixedValue
addFull(const FixedValue &a, const FixedValue &b)
{
    if (a.fmt.fracBits != b.fmt.fracBits)
        panic("assertion failed: addFull fraction mismatch: ",
              a.fmt.str(), " vs ", b.fmt.str());
    FixedFormat out{std::max(a.fmt.intBits, b.fmt.intBits) + 1,
                    a.fmt.fracBits};
    a3Assert(out.totalBits() <= 63, "addFull result too wide");
    return {a.raw + b.raw, out};
}

FixedValue
subFull(const FixedValue &a, const FixedValue &b)
{
    if (a.fmt.fracBits != b.fmt.fracBits)
        panic("assertion failed: subFull fraction mismatch: ",
              a.fmt.str(), " vs ", b.fmt.str());
    FixedFormat out{std::max(a.fmt.intBits, b.fmt.intBits) + 1,
                    a.fmt.fracBits};
    a3Assert(out.totalBits() <= 63, "subFull result too wide");
    return {a.raw - b.raw, out};
}

FixedValue
rescale(const FixedValue &v, FixedFormat target)
{
    std::int64_t raw = v.raw;
    const int shift = target.fracBits - v.fmt.fracBits;
    if (shift >= 0) {
        a3Assert(shift < 63, "rescale shift too large");
        raw <<= shift;
    } else {
        // Arithmetic right shift truncates toward negative infinity,
        // matching a hardware shifter that drops fraction bits.
        raw >>= -shift;
    }
    return {target.saturate(raw), target};
}

FixedValue
divide(const FixedValue &num, const FixedValue &den,
       int outIntBits, int outFracBits)
{
    a3Assert(den.raw != 0, "fixed-point division by zero");
    // value(num)/value(den) = (num.raw / den.raw) * 2^(fDen - fNum).
    // Pre-shift the numerator so the integer quotient carries
    // outFracBits + (fNum - fDen) extra bits of fraction.
    const int preShift =
        outFracBits + den.fmt.fracBits - num.fmt.fracBits;
    a3Assert(preShift >= 0 && preShift < 62,
             "divide pre-shift out of range: ", preShift);
    const std::int64_t scaledNum = num.raw << preShift;
    a3Assert((scaledNum >> preShift) == num.raw,
             "divide numerator overflow during pre-shift");
    std::int64_t quotient = scaledNum / den.raw;
    FixedFormat out{outIntBits, outFracBits};
    return {out.saturate(quotient), out};
}

}  // namespace a3
