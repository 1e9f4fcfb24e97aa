#include "attention/quantized.hpp"

#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "fixed/value.hpp"
#include "kernels/kernels.hpp"
#include "net/wire.hpp"
#include "util/logging.hpp"

namespace a3 {

QuantizedAttention::QuantizedAttention(int intBits, int fracBits,
                                       std::size_t rows,
                                       std::size_t dims,
                                       PackedKvFormat packed)
    : formats_(PipelineFormats::derive(intBits, fracBits, rows, dims)),
      lut_(2 * fracBits, 2 * fracBits), rows_(rows), dims_(dims),
      packed_(packed)
{
    // The packed kernels run int32 dot accumulators and int32 axpy
    // products; resolution only picks a packed lane where both fit.
    a3Assert(packedKvLaneHolds(packed_, intBits, fracBits, dims),
             "packed K/V lane ", packedKvFormatName(packed_),
             " cannot serve this task; use PackedKvFormat::Word32");
}

QuantizedAttention::QuantizedAttention(Matrix key, Matrix value,
                                       int intBits, int fracBits,
                                       PackedKvFormat packedKv)
    : QuantizedAttention(
          intBits, fracBits, key.rows(), key.cols(),
          resolvePackedKvFormat(packedKv, intBits, fracBits,
                                key.cols()))
{
    a3Assert(key.rows() == value.rows() && key.cols() == value.cols(),
             "key/value shape mismatch");
    a3Assert(key.rows() > 0 && key.cols() > 0,
             "attention task must be non-empty");

    // Quantize the task once at bind time — the host copies quantized
    // matrices into the accelerator SRAM exactly once per task — and
    // drop the float originals: every runInto() reads the cached words
    // instead of re-quantizing n x d floats per query.
    packRows(key, value, rows_);
    Scratch::forThread().reserveTask(rows_, dims_);
}

template <typename Self, typename Visitor>
void
QuantizedAttention::visitLanes(Self &self, Visitor &&visit)
{
    switch (self.packed_) {
    case PackedKvFormat::Word32:
        visit(self.keyQ_, self.valueQ_);
        return;
    case PackedKvFormat::Int16:
        visit(self.keyQ16_, self.valueQ16_);
        return;
    case PackedKvFormat::Int8:
        visit(self.keyQ8_, self.valueQ8_);
        return;
    case PackedKvFormat::Int4:
        visit(self.keyQ4_, self.valueQ4_);
        return;
    case PackedKvFormat::Auto:
        break;
    }
    panic("bound datapath cannot hold an unresolved layout");
}

void
QuantizedAttention::packRows(const Matrix &keyRows,
                             const Matrix &valueRows, std::size_t count)
{
    const FixedFormat inFmt = formats_.input;
    const std::size_t d = dims_;
    const std::size_t rowBytes = packedRowBytes(packed_, d);
    visitLanes(*this, [&](auto &keyLanes, auto &valueLanes) {
        using Lane =
            typename std::decay_t<decltype(keyLanes)>::value_type;
        const auto pack = [&](const Matrix &m, std::vector<Lane> &lanes) {
            lanes.reserve(lanes.size() + count * rowBytes / sizeof(Lane));
            if constexpr (std::is_same_v<Lane, std::uint8_t>) {
                // Nibble lanes: each row starts on its own byte.
                for (std::size_t r = 0; r < count; ++r) {
                    for (std::size_t j = 0; j < d; j += 2) {
                        const auto lane =
                            [&](std::size_t col) -> std::int8_t {
                            return col < d ? static_cast<std::int8_t>(
                                                 inFmt.quantize(m(r, col)))
                                           : std::int8_t{0};
                        };
                        lanes.push_back(
                            packNibblePair(lane(j), lane(j + 1)));
                    }
                }
            } else {
                for (std::size_t i = 0; i < count * d; ++i)
                    lanes.push_back(
                        static_cast<Lane>(inFmt.quantize(m.data()[i])));
            }
        };
        pack(keyRows, keyLanes);
        pack(valueRows, valueLanes);
    });
}

void
QuantizedAttention::append(const Matrix &keyRows, const Matrix &valueRows)
{
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == dims_,
             "appended rows must match the task dimension");
    const std::size_t k = keyRows.rows();
    if (k == 0)
        return;

    const FixedFormat inFmt = formats_.input;
    packRows(keyRows, valueRows, k);
    rows_ += k;
    // Re-derive the stage widths for the grown n: only the expSum and
    // output capacity annotations change — every fraction width stays,
    // so existing words and future results are unaffected beyond the
    // larger legal range. The lane layout depends on d alone, so it
    // stays valid.
    formats_ = PipelineFormats::derive(inFmt.intBits, inFmt.fracBits,
                                       rows_, dims_);
    Scratch::forThread().reserveTask(rows_, dims_);
}

std::unique_ptr<AttentionBackend>
QuantizedAttention::clone() const
{
    // Member-wise copy: lanes, formats, and the LUT are all
    // plain values, so the clone is bit-identical in queries.
    return std::unique_ptr<AttentionBackend>(
        new QuantizedAttention(*this));
}

std::size_t
QuantizedAttention::compact()
{
    std::size_t reclaimed = 0;
    visitLanes(*this, [&reclaimed](auto &keyLanes, auto &valueLanes) {
        for (auto *lanes : {&keyLanes, &valueLanes}) {
            const std::size_t before = lanes->capacity();
            lanes->shrink_to_fit();
            reclaimed += (before - lanes->capacity()) *
                         sizeof(lanes->front());
        }
    });
    return reclaimed;
}

namespace {

/**
 * One side's lanes on the wire: a length-prefixed array at the lane's
 * own width (u32s for Word32 words, u16s for int16 lanes, a blob for
 * byte lanes), as two's-complement bit patterns.
 */
template <typename Lane>
void
writeLanes(WireWriter &out, const std::vector<Lane> &lanes)
{
    using Wire = std::make_unsigned_t<Lane>;
    const auto *wire = reinterpret_cast<const Wire *>(lanes.data());
    if constexpr (sizeof(Lane) == 4)
        out.u32s(wire, lanes.size());
    else if constexpr (sizeof(Lane) == 2)
        out.u16s(wire, lanes.size());
    else
        out.blob(wire, lanes.size());
}

/** Inverse of writeLanes(). */
template <typename Lane>
void
readLanes(WireReader &in, std::vector<Lane> &lanes)
{
    std::vector<std::make_unsigned_t<Lane>> wire;
    if constexpr (sizeof(Lane) == 4)
        in.u32s(wire);
    else if constexpr (sizeof(Lane) == 2)
        in.u16s(wire);
    else
        in.blob(wire);
    lanes.resize(wire.size());
    std::memcpy(lanes.data(), wire.data(), wire.size() * sizeof(Lane));
}

}  // namespace

void
QuantizedAttention::serializeState(WireWriter &out) const
{
    out.u64(rows_);
    out.u64(dims_);
    out.u8(static_cast<std::uint8_t>(packed_));
    visitLanes(*this, [&out](const auto &keyLanes, const auto &valueLanes) {
        writeLanes(out, keyLanes);
        writeLanes(out, valueLanes);
    });
}

std::unique_ptr<QuantizedAttention>
QuantizedAttention::restore(const EngineConfig &config, WireReader &in)
{
    const std::uint64_t rows = in.u64();
    const std::uint64_t dims = in.u64();
    const std::uint8_t packedRaw = in.u8();
    if (!in.ok() || rows == 0 || dims == 0)
        return nullptr;
    const std::size_t n = static_cast<std::size_t>(rows);
    const std::size_t d = static_cast<std::size_t>(dims);
    const PackedKvFormat expected = tryResolvePackedKvFormat(
        config.packedKv, config.intBits, config.fracBits, d);
    if (expected == PackedKvFormat::Auto ||
        packedRaw != static_cast<std::uint8_t>(expected))
        return nullptr;

    // Re-derive the stage formats and the exponent LUT — both
    // deterministic functions of the config and shape, so recomputing
    // them is bit-identical to the original.
    std::unique_ptr<QuantizedAttention> backend(new QuantizedAttention(
        config.intBits, config.fracBits, n, d, expected));

    bool complete = false;
    visitLanes(*backend, [&](auto &keyLanes, auto &valueLanes) {
        readLanes(in, keyLanes);
        readLanes(in, valueLanes);
        const std::size_t perRow =
            packedRowBytes(expected, d) / sizeof(keyLanes.front());
        complete = in.ok() && keyLanes.size() == n * perRow &&
                   valueLanes.size() == keyLanes.size();
    });
    if (!complete)
        return nullptr;

    Scratch::forThread().reserveTask(n, d);
    return backend;
}

std::size_t
QuantizedAttention::memoryBytes() const
{
    std::size_t bytes = 0;
    visitLanes(*this, [&bytes](const auto &keyLanes,
                               const auto &valueLanes) {
        bytes = (keyLanes.size() + valueLanes.size()) *
                sizeof(keyLanes.front());
    });
    return bytes;
}

void
QuantizedAttention::runInto(const Vector &query,
                            AttentionResult &out) const
{
    Scratch &scratch = Scratch::forThread();
    scratch.rowIds.resize(rows_);
    std::iota(scratch.rowIds.begin(), scratch.rowIds.end(), 0u);
    runCore(query, scratch.rowIds, out, scratch);
}

void
QuantizedAttention::runRowsInto(const Vector &query,
                                std::span<const std::uint32_t> rows,
                                AttentionResult &out) const
{
    runCore(query, rows, out, Scratch::forThread());
}

void
QuantizedAttention::runCore(const Vector &query,
                            std::span<const std::uint32_t> rows,
                            AttentionResult &result,
                            Scratch &scratch) const
{
    a3Assert(!rows.empty(), "quantized pipeline needs at least one row");

    const std::size_t d = dims_;
    const std::size_t m = rows.size();
    const FixedFormat inFmt = formats_.input;

    // Quantize the query once (host copies the quantized vector in).
    std::vector<std::int64_t> &queryQ = scratch.queryQ;
    queryQ.resize(d);
    for (std::size_t j = 0; j < d; ++j)
        queryQ[j] = inFmt.quantize(query[j]);

    // Packed layouts MAC directly on the packed lanes; the lanes hold
    // the exact quantized words, so the result is bit-identical to
    // the Word32 loops.
    const bool packedLanes = packed_ != PackedKvFormat::Word32;
    const Kernels &kern = activeKernels();

    // --- Module 1: dot products and running max (Figure 5 lines 3-10).
    std::vector<std::int64_t> &dotQ = scratch.dotQ;
    dotQ.resize(m);
    std::int64_t maxDot = 0;
    if (packedLanes) {
        std::vector<std::int32_t> &dot32 = scratch.dotQ32;
        dot32.resize(m);
        if (packed_ == PackedKvFormat::Int16) {
            std::vector<std::int16_t> &queryQ16 = scratch.queryQ16;
            queryQ16.resize(d);
            for (std::size_t j = 0; j < d; ++j)
                queryQ16[j] = static_cast<std::int16_t>(queryQ[j]);
            kern.gatherDotI16(keyQ16_.data(), d, rows.data(), m,
                              queryQ16.data(), dot32.data());
        } else {
            std::vector<std::int8_t> &queryQ8 = scratch.queryQ8;
            queryQ8.resize(d);
            for (std::size_t j = 0; j < d; ++j)
                queryQ8[j] = static_cast<std::int8_t>(queryQ[j]);
            if (packed_ == PackedKvFormat::Int8)
                kern.gatherDotI8(keyQ8_.data(), d, rows.data(), m,
                                 queryQ8.data(), dot32.data());
            else
                kern.gatherDotI4(keyQ4_.data(), d, rows.data(), m,
                                 queryQ8.data(), dot32.data());
        }
        for (std::size_t i = 0; i < m; ++i) {
            const std::int64_t sum = dot32[i];
            a3Assert(formats_.dotProduct.fits(sum),
                     "dot-product stage overflow: Section III-B widths "
                     "violated");
            dotQ[i] = sum;
            if (i == 0 || sum > maxDot)
                maxDot = sum;
        }
    } else {
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint32_t r = rows[i];
            std::int64_t sum = 0;  // adder-tree acc, (2i+log2 d, 2f)
            const std::int32_t *keyRow = keyQ_.data() + r * d;
            for (std::size_t j = 0; j < d; ++j)
                sum += keyRow[j] * queryQ[j];
            a3Assert(formats_.dotProduct.fits(sum),
                     "dot-product stage overflow: Section III-B widths "
                     "violated");
            dotQ[i] = sum;
            if (i == 0 || sum > maxDot)
                maxDot = sum;
        }
    }

    // --- Module 2: exponent computation (Figure 5 lines 11-16).
    std::vector<std::int64_t> &scoreQ = scratch.scoreQ;
    scoreQ.resize(m);
    std::int64_t expSum = 0;  // (log2 n, 2f)
    for (std::size_t i = 0; i < m; ++i) {
        const std::int64_t shifted = dotQ[i] - maxDot;  // <= 0
        a3Assert(formats_.shiftedDot.fits(shifted),
                 "shifted-dot stage overflow");
        scoreQ[i] = lut_.lookup(shifted);
        expSum += scoreQ[i];
    }
    a3Assert(formats_.expSum.fits(expSum), "expsum stage overflow");
    a3Assert(expSum > 0, "expsum must be positive: the max row scores "
                         "~1 by construction");

    // --- Module 3: weights and output accumulation (lines 17-21).
    result.scores.assign(rows_, 0.0f);
    result.weights.assign(rows_, 0.0f);
    result.candidates.assign(rows.begin(), rows.end());
    result.kept.assign(rows.begin(), rows.end());
    result.output.assign(d, 0.0f);
    result.iterations = 0;

    const FixedValue expSumV{expSum, formats_.expSum};
    std::vector<std::int64_t> &outQ = scratch.outQ;
    outQ.assign(d, 0);
    const std::size_t rowBytes4 = (d + 1) / 2;
    // Scaling by a power of two is exact, so double(dot) * dotScale is
    // formats_.dotProduct.toDouble(dot) without an ldexp() per row.
    const double dotScale = formats_.dotProduct.resolution();
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t r = rows[i];
        const FixedValue scoreV{scoreQ[i], formats_.score};
        const FixedValue weightV =
            divide(scoreV, expSumV, formats_.weight.intBits,
                   formats_.weight.fracBits);
        result.scores[r] =
            static_cast<float>(static_cast<double>(dotQ[i]) * dotScale);
        result.weights[r] = static_cast<float>(weightV.toDouble());
        if (packedLanes) {
            // Fused dequant-dot accumulation on the packed lanes:
            // product.raw below is weightV.raw * vq, which is exactly
            // what axpyI16/I8/I4 accumulate (lane resolution keeps
            // every such product inside the kernels' int32 contract).
            if (packed_ == PackedKvFormat::Int16)
                kern.axpyI16(weightV.raw, valueQ16_.data() + r * d,
                             outQ.data(), d);
            else if (packed_ == PackedKvFormat::Int8)
                kern.axpyI8(weightV.raw, valueQ8_.data() + r * d,
                            outQ.data(), d);
            else
                kern.axpyI4(weightV.raw,
                            valueQ4_.data() + r * rowBytes4,
                            outQ.data(), d);
            continue;
        }
        const std::int32_t *valueRow = valueQ_.data() + r * d;
        for (std::size_t j = 0; j < d; ++j) {
            const FixedValue valueV{valueRow[j], inFmt};
            const FixedValue product = mulFull(weightV, valueV);
            // Accumulate at (i + log2 n, 3f); product already has 3f
            // fraction bits because weight carries 2f and value f.
            outQ[j] += product.raw;
            a3Assert(formats_.output.fits(outQ[j]),
                     "output stage overflow");
        }
    }
    for (std::size_t j = 0; j < d; ++j) {
        // Packed rows skip the per-element overflow check inside the
        // hot loop; the final accumulators must still fit (partial
        // sums are bounded by the same capacity annotation).
        a3Assert(formats_.output.fits(outQ[j]), "output stage overflow");
        result.output[j] =
            static_cast<float>(formats_.output.toDouble(outQ[j]));
    }
}

}  // namespace a3
