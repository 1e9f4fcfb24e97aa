/**
 * @file
 * Bounds-checked little-endian payload encoding.
 *
 * Every multi-byte field of the wire protocol is serialized
 * explicitly byte by byte in little-endian order, so the format is
 * identical across architectures and independent of host struct
 * layout. Floats travel as their IEEE-754 bit patterns
 * (std::bit_cast), which is what makes a remote PartialResult
 * bit-identical to a locally computed one.
 *
 * WireReader never trusts the peer: every read is bounds-checked,
 * and the first overrun latches a failure flag (subsequent reads
 * return zeros). Decoders read all fields, then check ok() once —
 * a malformed payload yields a typed rejection, never UB.
 */

#ifndef A3_NET_WIRE_HPP
#define A3_NET_WIRE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace a3 {

/** FNV-1a 32-bit hash — the frame payload checksum. */
std::uint32_t fnv1a(const std::uint8_t *data, std::size_t size);

/** Append-only little-endian encoder. */
class WireWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    f32(float v)
    {
        u32(std::bit_cast<std::uint32_t>(v));
    }

    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);

    /** Length-prefixed (u64) float array, bit patterns. */
    void floats(const float *data, std::size_t count);

    /** Length-prefixed (u64) u16 array. */
    void u16s(const std::uint16_t *data, std::size_t count);

    /** Length-prefixed (u64) u32 array. */
    void u32s(const std::uint32_t *data, std::size_t count);

    /**
     * Length-prefixed (u64) raw byte array — the packed K/V lanes of
     * a shard image travel verbatim, so the on-disk image is the
     * in-memory image.
     */
    void blob(const std::uint8_t *data, std::size_t count);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian decoder over a borrowed buffer. */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit WireReader(const std::vector<std::uint8_t> &buf)
        : WireReader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    float f32() { return std::bit_cast<float>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }

    /** Length-prefixed byte string (capped at remaining bytes). */
    std::string str();

    /** Length-prefixed float array into `out` (resized). */
    void floats(std::vector<float> &out);

    /** Length-prefixed u16 array into `out` (resized). */
    void u16s(std::vector<std::uint16_t> &out);

    /** Length-prefixed u32 array into `out` (resized). */
    void u32s(std::vector<std::uint32_t> &out);

    /** Length-prefixed raw byte array into `out` (resized). */
    void blob(std::vector<std::uint8_t> &out);

    /** Every read so far was in bounds. */
    bool ok() const { return ok_; }

    /** ok() and the payload was consumed exactly (no trailing junk,
     *  which strict framing treats as malformed too). */
    bool done() const { return ok_ && pos_ == size_; }

    std::size_t remaining() const { return size_ - pos_; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace a3

#endif  // A3_NET_WIRE_HPP
