#include "attention/quantized.hpp"

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
    if (packed_ != PackedKvFormat::Word32) {
        // The packed kernels accumulate in int32; the derived dot
        // format must fit (it always does for byte-narrow words at
        // any realistic d — this guards absurd dimensions).
        a3Assert(formats_.dotProduct.totalBits() <= 32,
                 "dot-product format exceeds the packed kernels' "
                 "32-bit accumulator; use PackedKvFormat::Word32");
    }
}

QuantizedAttention::QuantizedAttention(Matrix key, Matrix value,
                                       int intBits, int fracBits,
                                       PackedKvFormat packedKv)
    : QuantizedAttention(
          intBits, fracBits, key.rows(), key.cols(),
          resolvePackedKvFormat(packedKv, intBits, fracBits))
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

void
QuantizedAttention::packRows(const Matrix &keyRows,
                             const Matrix &valueRows, std::size_t count)
{
    const FixedFormat inFmt = formats_.input;
    const std::size_t d = dims_;
    switch (packed_) {
    case PackedKvFormat::Word32:
        keyQ_.reserve(keyQ_.size() + count * d);
        valueQ_.reserve(valueQ_.size() + count * d);
        for (std::size_t i = 0; i < count * d; ++i) {
            keyQ_.push_back(static_cast<std::int32_t>(
                inFmt.quantize(keyRows.data()[i])));
            valueQ_.push_back(static_cast<std::int32_t>(
                inFmt.quantize(valueRows.data()[i])));
        }
        break;
    case PackedKvFormat::Int8:
        keyQ8_.reserve(keyQ8_.size() + count * d);
        valueQ8_.reserve(valueQ8_.size() + count * d);
        for (std::size_t i = 0; i < count * d; ++i) {
            keyQ8_.push_back(static_cast<std::int8_t>(
                inFmt.quantize(keyRows.data()[i])));
            valueQ8_.push_back(static_cast<std::int8_t>(
                inFmt.quantize(valueRows.data()[i])));
        }
        break;
    case PackedKvFormat::Int4: {
        const std::size_t rowBytes = (d + 1) / 2;
        keyQ4_.reserve(keyQ4_.size() + count * rowBytes);
        valueQ4_.reserve(valueQ4_.size() + count * rowBytes);
        for (std::size_t r = 0; r < count; ++r) {
            for (std::size_t j = 0; j < d; j += 2) {
                const auto lane = [&](const Matrix &m,
                                      std::size_t col) -> std::int8_t {
                    return col < d ? static_cast<std::int8_t>(
                                         inFmt.quantize(m(r, col)))
                                   : std::int8_t{0};
                };
                keyQ4_.push_back(packNibblePair(lane(keyRows, j),
                                                lane(keyRows, j + 1)));
                valueQ4_.push_back(packNibblePair(
                    lane(valueRows, j), lane(valueRows, j + 1)));
            }
        }
        break;
    }
    case PackedKvFormat::Auto:
        panic("packed_ must be resolved before packRows()");
    }
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
    // larger legal range.
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
    const auto shrink = [&reclaimed](auto &lane) {
        using Elem = typename std::decay_t<decltype(lane)>::value_type;
        const std::size_t before = lane.capacity();
        lane.shrink_to_fit();
        reclaimed += (before - lane.capacity()) * sizeof(Elem);
    };
    shrink(keyQ_);
    shrink(valueQ_);
    shrink(keyQ8_);
    shrink(valueQ8_);
    shrink(keyQ4_);
    shrink(valueQ4_);
    return reclaimed;
}

void
QuantizedAttention::serializeState(WireWriter &out) const
{
    out.u64(rows_);
    out.u64(dims_);
    out.u8(static_cast<std::uint8_t>(packed_));
    switch (packed_) {
    case PackedKvFormat::Word32:
        // int32 words travel as their two's-complement bit patterns.
        out.u32s(reinterpret_cast<const std::uint32_t *>(keyQ_.data()),
                 keyQ_.size());
        out.u32s(
            reinterpret_cast<const std::uint32_t *>(valueQ_.data()),
            valueQ_.size());
        break;
    case PackedKvFormat::Int8:
        out.blob(reinterpret_cast<const std::uint8_t *>(keyQ8_.data()),
                 keyQ8_.size());
        out.blob(
            reinterpret_cast<const std::uint8_t *>(valueQ8_.data()),
            valueQ8_.size());
        break;
    case PackedKvFormat::Int4:
        out.blob(keyQ4_.data(), keyQ4_.size());
        out.blob(valueQ4_.data(), valueQ4_.size());
        break;
    case PackedKvFormat::Auto:
        panic("bound datapath cannot hold an unresolved layout");
    }
}

std::unique_ptr<QuantizedAttention>
QuantizedAttention::restore(const EngineConfig &config, WireReader &in)
{
    const std::uint64_t rows = in.u64();
    const std::uint64_t dims = in.u64();
    const std::uint8_t packedRaw = in.u8();
    if (!in.ok() || rows == 0 || dims == 0)
        return nullptr;
    const PackedKvFormat expected = resolvePackedKvFormat(
        config.packedKv, config.intBits, config.fracBits);
    if (packedRaw != static_cast<std::uint8_t>(expected))
        return nullptr;

    // Re-derive the stage formats and the exponent LUT — both
    // deterministic functions of the config and shape, so recomputing
    // them is bit-identical to the original.
    const std::size_t n = static_cast<std::size_t>(rows);
    const std::size_t d = static_cast<std::size_t>(dims);
    std::unique_ptr<QuantizedAttention> backend(new QuantizedAttention(
        config.intBits, config.fracBits, n, d, expected));

    std::size_t laneCount = 0;
    switch (expected) {
    case PackedKvFormat::Word32: {
        std::vector<std::uint32_t> words;
        in.u32s(words);
        laneCount = words.size();
        backend->keyQ_.assign(
            reinterpret_cast<const std::int32_t *>(words.data()),
            reinterpret_cast<const std::int32_t *>(words.data()) +
                words.size());
        in.u32s(words);
        if (words.size() != laneCount)
            return nullptr;
        backend->valueQ_.assign(
            reinterpret_cast<const std::int32_t *>(words.data()),
            reinterpret_cast<const std::int32_t *>(words.data()) +
                words.size());
        if (laneCount != n * d)
            return nullptr;
        break;
    }
    case PackedKvFormat::Int8: {
        std::vector<std::uint8_t> bytes;
        in.blob(bytes);
        laneCount = bytes.size();
        backend->keyQ8_.assign(
            reinterpret_cast<const std::int8_t *>(bytes.data()),
            reinterpret_cast<const std::int8_t *>(bytes.data()) +
                bytes.size());
        in.blob(bytes);
        if (bytes.size() != laneCount)
            return nullptr;
        backend->valueQ8_.assign(
            reinterpret_cast<const std::int8_t *>(bytes.data()),
            reinterpret_cast<const std::int8_t *>(bytes.data()) +
                bytes.size());
        if (laneCount != n * d)
            return nullptr;
        break;
    }
    case PackedKvFormat::Int4:
        in.blob(backend->keyQ4_);
        in.blob(backend->valueQ4_);
        laneCount = backend->keyQ4_.size();
        if (backend->valueQ4_.size() != laneCount ||
            laneCount != n * ((d + 1) / 2))
            return nullptr;
        break;
    case PackedKvFormat::Auto:
        return nullptr;
    }
    if (!in.ok())
        return nullptr;

    Scratch::forThread().reserveTask(n, d);
    return backend;
}

std::size_t
QuantizedAttention::memoryBytes() const
{
    return (keyQ_.size() + valueQ_.size()) * sizeof(std::int32_t) +
           (keyQ8_.size() + valueQ8_.size()) * sizeof(std::int8_t) +
           (keyQ4_.size() + valueQ4_.size()) * sizeof(std::uint8_t);
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
        std::vector<std::int8_t> &queryQ8 = scratch.queryQ8;
        queryQ8.resize(d);
        for (std::size_t j = 0; j < d; ++j)
            queryQ8[j] = static_cast<std::int8_t>(queryQ[j]);
        std::vector<std::int32_t> &dot32 = scratch.dotQ32;
        dot32.resize(m);
        if (packed_ == PackedKvFormat::Int8)
            kern.gatherDotI8(keyQ8_.data(), d, rows.data(), m,
                             queryQ8.data(), dot32.data());
        else
            kern.gatherDotI4(keyQ4_.data(), d, rows.data(), m,
                             queryQ8.data(), dot32.data());
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
            // Fused dequant-dot accumulation on the packed bytes:
            // product.raw below is weightV.raw * vq, which is exactly
            // what axpyI8/I4 accumulate (the weight format (0, 2f)
            // keeps |w| far under the kernels' 2^24 contract).
            if (packed_ == PackedKvFormat::Int8)
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
