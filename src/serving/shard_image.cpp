#include "serving/shard_image.hpp"

#include <cstdio>
#include <cstring>

#include "net/wire.hpp"
#include "util/logging.hpp"

namespace a3 {

std::string
ShardKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf);
}

bool
ShardKey::parseHex(const std::string &text, ShardKey &out)
{
    if (text.size() != 32)
        return false;
    std::uint64_t parts[2] = {0, 0};
    for (std::size_t i = 0; i < 32; ++i) {
        const char c = text[i];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
        parts[i / 16] = (parts[i / 16] << 4) | digit;
    }
    out.hi = parts[0];
    out.lo = parts[1];
    return true;
}

void
ShardKeyHasher::mixBytes(const std::uint8_t *data, std::size_t size)
{
    // FNV-1a folding one 64-bit word per step instead of one byte:
    // the hasher sits on the warm acquire() path, where re-keying a
    // multi-megabyte shard byte-at-a-time would cost as much as the
    // preprocessing the spill tier exists to skip. Word folding keeps
    // the same two decorrelated streams and full input sensitivity;
    // only self-consistency matters (images store the key their
    // writer computed and the reader recomputes it the same way).
    constexpr std::uint64_t prime = 1099511628211ull;
    std::uint64_t hi = hi_;
    std::uint64_t lo = lo_;
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= size;
         i += sizeof(std::uint64_t)) {
        std::uint64_t word;
        std::memcpy(&word, data + i, sizeof(word));
        hi = (hi ^ word) * prime;
        lo = (lo ^ word) * prime;
    }
    for (; i < size; ++i) {
        hi = (hi ^ data[i]) * prime;
        lo = (lo ^ data[i]) * prime;
    }
    hi_ = hi;
    lo_ = lo;
}

namespace {

/**
 * Image payload checksum: FNV-1a-64 folded one word per step (same
 * rationale as ShardKeyHasher::mixBytes — a byte loop over a
 * multi-megabyte payload would dominate the warm restore the spill
 * tier exists for), collapsed to the u32 the header stores. Images
 * are written and verified by the same code, so this needs no
 * compatibility with the byte-wise wire-frame fnv1a().
 */
std::uint32_t
imageChecksum(const std::uint8_t *data, std::size_t size)
{
    constexpr std::uint64_t prime = 1099511628211ull;
    std::uint64_t hash = 14695981039346656037ull;
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= size;
         i += sizeof(std::uint64_t)) {
        std::uint64_t word;
        std::memcpy(&word, data + i, sizeof(word));
        hash = (hash ^ word) * prime;
    }
    for (; i < size; ++i)
        hash = (hash ^ data[i]) * prime;
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

/** Canonical fingerprint bytes of one config for a `dims`-column
 *  task (see mixConfig). */
void
appendConfigFingerprint(const EngineConfig &config, std::size_t dims,
                        std::vector<std::uint8_t> &out)
{
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(config.kind));
    const bool quantized =
        config.kind == EngineKind::ExactQuantized ||
        config.kind == EngineKind::ApproxQuantized;
    const bool approx = config.kind == EngineKind::ApproxFloat ||
                        config.kind == EngineKind::ApproxQuantized;
    if (quantized) {
        w.u8(static_cast<std::uint8_t>(config.intBits));
        w.u8(static_cast<std::uint8_t>(config.fracBits));
        w.u8(static_cast<std::uint8_t>(tryResolvePackedKvFormat(
            config.packedKv, config.intBits, config.fracBits, dims)));
    }
    if (approx) {
        const ApproxConfig &a = config.approx;
        w.u8(a.candidateSelection ? 1 : 0);
        w.u8(a.postScoring ? 1 : 0);
        w.u8(a.skipHeuristic ? 1 : 0);
        w.f64(a.mFraction);
        w.u64(a.mAbsolute);
        w.f64(a.thresholdPercent);
    }
    const std::vector<std::uint8_t> &bytes = w.bytes();
    out.insert(out.end(), bytes.begin(), bytes.end());
}

}  // namespace

void
ShardKeyHasher::mixConfig(const EngineConfig &config, std::size_t dims)
{
    std::vector<std::uint8_t> fingerprint;
    appendConfigFingerprint(config, dims, fingerprint);
    mixBytes(fingerprint.data(), fingerprint.size());
}

void
ShardKeyHasher::mixTaskRows(const Matrix &key, const Matrix &value,
                            std::size_t firstRow, std::size_t count)
{
    a3Assert(key.rows() == value.rows() && key.cols() == value.cols(),
             "key/value shape mismatch");
    a3Assert(firstRow + count <= key.rows(),
             "row range ", firstRow, "+", count, " out of ",
             key.rows());
    const std::size_t rowBytes = key.cols() * sizeof(float);
    for (std::size_t r = firstRow; r < firstRow + count; ++r) {
        mixBytes(reinterpret_cast<const std::uint8_t *>(
                     key.row(r).data()),
                 rowBytes);
        mixBytes(reinterpret_cast<const std::uint8_t *>(
                     value.row(r).data()),
                 rowBytes);
    }
}

std::vector<std::uint8_t>
encodeShardImage(const EngineConfig &config, const ShardKey &key,
                 const AttentionBackend &backend)
{
    a3Assert(backend.serializable(),
             "backend \"", backend.name(), "\" has no shard image");
    WireWriter payload;
    backend.serializeState(payload);
    const std::vector<std::uint8_t> &body = payload.bytes();

    WireWriter image;
    image.u32(kShardImageMagic);
    image.u16(kShardImageVersion);
    image.u8(static_cast<std::uint8_t>(config.kind));
    const bool quantized =
        config.kind == EngineKind::ExactQuantized ||
        config.kind == EngineKind::ApproxQuantized;
    image.u8(quantized
                 ? static_cast<std::uint8_t>(tryResolvePackedKvFormat(
                       config.packedKv, config.intBits,
                       config.fracBits, backend.dims()))
                 : 0);
    image.u8(quantized ? static_cast<std::uint8_t>(config.intBits)
                       : 0);
    image.u8(quantized ? static_cast<std::uint8_t>(config.fracBits)
                       : 0);
    image.u64(key.hi);
    image.u64(key.lo);
    image.u64(backend.rows());
    image.u64(backend.dims());
    image.u64(body.size());
    image.u32(imageChecksum(body.data(), body.size()));
    std::vector<std::uint8_t> bytes = image.take();
    bytes.insert(bytes.end(), body.begin(), body.end());
    return bytes;
}

std::unique_ptr<AttentionBackend>
decodeShardImage(const EngineConfig &config, const ShardKey &expected,
                 const std::uint8_t *data, std::size_t size)
{
    WireReader header(data, size);
    if (header.u32() != kShardImageMagic)
        return nullptr;
    if (header.u16() != kShardImageVersion)
        return nullptr;
    const std::uint8_t kind = header.u8();
    const std::uint8_t packed = header.u8();
    const std::uint8_t intBits = header.u8();
    const std::uint8_t fracBits = header.u8();
    ShardKey stamped;
    stamped.hi = header.u64();
    stamped.lo = header.u64();
    const std::uint64_t rows = header.u64();
    const std::uint64_t dims = header.u64();
    const std::uint64_t payloadLen = header.u64();
    const std::uint32_t checksum = header.u32();
    if (!header.ok())
        return nullptr;

    if (kind != static_cast<std::uint8_t>(config.kind))
        return nullptr;
    const bool quantized =
        config.kind == EngineKind::ExactQuantized ||
        config.kind == EngineKind::ApproxQuantized;
    if (quantized) {
        // The lane layout resolves per task width: an image written
        // under another layout (say Word32, before the int16 lane
        // existed) is a miss, never a misread.
        const PackedKvFormat layout = tryResolvePackedKvFormat(
            config.packedKv, config.intBits, config.fracBits,
            static_cast<std::size_t>(dims));
        if (intBits != static_cast<std::uint8_t>(config.intBits) ||
            fracBits != static_cast<std::uint8_t>(config.fracBits) ||
            layout == PackedKvFormat::Auto ||
            packed != static_cast<std::uint8_t>(layout))
            return nullptr;
    }
    if (!(stamped == expected))
        return nullptr;
    if (payloadLen != header.remaining())
        return nullptr;

    const std::uint8_t *payload = data + (size - header.remaining());
    if (imageChecksum(payload,
                      static_cast<std::size_t>(payloadLen)) !=
        checksum)
        return nullptr;

    WireReader body(payload, static_cast<std::size_t>(payloadLen));
    std::unique_ptr<AttentionBackend> backend =
        deserializeBackend(config, body);
    if (backend == nullptr || !body.done())
        return nullptr;
    if (backend->rows() != rows || backend->dims() != dims)
        return nullptr;
    return backend;
}

}  // namespace a3
