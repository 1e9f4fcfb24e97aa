#include "net/wire.hpp"

#include <bit>
#include <cstring>

namespace a3 {

namespace {

/**
 * Little-endian hosts can move bulk 2- and 4-byte arrays with one
 * memcpy — the wire format *is* the in-memory layout there. The
 * per-element paths remain the portable fallback; shard-image
 * restores and large query frames are the callers that care
 * (multi-megabyte arrays on the serving hot path).
 */
constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

}  // namespace

std::uint32_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t hash = 2166136261u;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 16777619u;
    }
    return hash;
}

void
WireWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
WireWriter::floats(const float *data, std::size_t count)
{
    u64(count);
    if (kLittleEndianHost) {
        const auto *raw = reinterpret_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), raw, raw + count * 4);
        return;
    }
    buf_.reserve(buf_.size() + count * 4);
    for (std::size_t i = 0; i < count; ++i)
        f32(data[i]);
}

void
WireWriter::u16s(const std::uint16_t *data, std::size_t count)
{
    u64(count);
    if (kLittleEndianHost) {
        const auto *raw = reinterpret_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), raw, raw + count * 2);
        return;
    }
    buf_.reserve(buf_.size() + count * 2);
    for (std::size_t i = 0; i < count; ++i)
        u16(data[i]);
}

void
WireWriter::u32s(const std::uint32_t *data, std::size_t count)
{
    u64(count);
    if (kLittleEndianHost) {
        const auto *raw = reinterpret_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), raw, raw + count * 4);
        return;
    }
    buf_.reserve(buf_.size() + count * 4);
    for (std::size_t i = 0; i < count; ++i)
        u32(data[i]);
}

void
WireWriter::blob(const std::uint8_t *data, std::size_t count)
{
    u64(count);
    buf_.insert(buf_.end(), data, data + count);
}

std::uint8_t
WireReader::u8()
{
    if (pos_ + 1 > size_) {
        ok_ = false;
        return 0;
    }
    return data_[pos_++];
}

std::uint16_t
WireReader::u16()
{
    const std::uint16_t lo = u8();
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t
WireReader::u32()
{
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
}

std::uint64_t
WireReader::u64()
{
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
}

std::string
WireReader::str()
{
    const std::uint32_t len = u32();
    if (!ok_ || len > remaining()) {
        ok_ = false;
        return std::string();
    }
    std::string out(reinterpret_cast<const char *>(data_ + pos_),
                    len);
    pos_ += len;
    return out;
}

void
WireReader::floats(std::vector<float> &out)
{
    const std::uint64_t count = u64();
    // Each element occupies 4 bytes, so a count beyond remaining/4
    // is a lie about the payload — reject before resizing, or a
    // hostile length would make the reader allocate gigabytes.
    if (!ok_ || count > remaining() / 4) {
        ok_ = false;
        out.clear();
        return;
    }
    out.resize(static_cast<std::size_t>(count));
    if (kLittleEndianHost) {
        std::memcpy(out.data(), data_ + pos_,
                    static_cast<std::size_t>(count) * 4);
        pos_ += static_cast<std::size_t>(count) * 4;
        return;
    }
    for (auto &v : out)
        v = f32();
}

void
WireReader::u16s(std::vector<std::uint16_t> &out)
{
    const std::uint64_t count = u64();
    if (!ok_ || count > remaining() / 2) {
        ok_ = false;
        out.clear();
        return;
    }
    out.resize(static_cast<std::size_t>(count));
    if (kLittleEndianHost) {
        std::memcpy(out.data(), data_ + pos_,
                    static_cast<std::size_t>(count) * 2);
        pos_ += static_cast<std::size_t>(count) * 2;
        return;
    }
    for (auto &v : out)
        v = u16();
}

void
WireReader::u32s(std::vector<std::uint32_t> &out)
{
    const std::uint64_t count = u64();
    if (!ok_ || count > remaining() / 4) {
        ok_ = false;
        out.clear();
        return;
    }
    out.resize(static_cast<std::size_t>(count));
    if (kLittleEndianHost) {
        std::memcpy(out.data(), data_ + pos_,
                    static_cast<std::size_t>(count) * 4);
        pos_ += static_cast<std::size_t>(count) * 4;
        return;
    }
    for (auto &v : out)
        v = u32();
}

void
WireReader::blob(std::vector<std::uint8_t> &out)
{
    const std::uint64_t count = u64();
    if (!ok_ || count > remaining()) {
        ok_ = false;
        out.clear();
        return;
    }
    out.assign(data_ + pos_, data_ + pos_ + count);
    pos_ += static_cast<std::size_t>(count);
}

}  // namespace a3
