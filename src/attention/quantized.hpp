/**
 * @file
 * Bit-accurate fixed-point model of the base A3 pipeline (Section III).
 *
 * This class reproduces, value for value, what the synthesized datapath
 * computes: inputs quantized to (i, f), element products at (2i, 2f), an
 * adder-tree dot product at (2i + log2 d, 2f), running-max subtraction,
 * the two-half exponent LUT, a truncating divider for the weights, and
 * the (i + log2 n, 3f) output accumulators. The cycle-level simulator
 * reuses this model for data while adding timing; the accuracy benches
 * use it for the Section VI-B quantization study.
 */

#ifndef A3_ATTENTION_QUANTIZED_HPP
#define A3_ATTENTION_QUANTIZED_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "attention/backend.hpp"
#include "attention/types.hpp"
#include "fixed/exp_lut.hpp"
#include "fixed/packed.hpp"
#include "fixed/pipeline_formats.hpp"
#include "kernels/scratch.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/** Fixed-point functional model of the base A3 attention pipeline. */
class QuantizedAttention final : public AttentionBackend
{
  public:
    /**
     * Bind a key/value task into the datapath with inputs quantized
     * to `intBits`.`fracBits` (paper default: i = f = 4): the
     * pipeline is sized exactly for the task, and the key/value words
     * are quantized once up front (the host copies quantized matrices
     * into the accelerator SRAM exactly once per task).
     *
     * `packedKv` chooses the SRAM lane layout (fixed/packed.hpp):
     * Auto packs to the narrowest lossless lane for the input format
     * and task width, so every configuration up to 16-bit words gets
     * the 2-8x footprint shrink and the packed SIMD kernels without
     * any call-site change. Packing is lossless — the packed lanes
     * hold the exact quantized words the int32-word layout holds — so
     * results are bit-identical across layouts. An explicit packed
     * request the lane cannot hold fatal()s.
     */
    QuantizedAttention(Matrix key, Matrix value, int intBits,
                       int fracBits,
                       PackedKvFormat packedKv = PackedKvFormat::Auto);

    using AttentionBackend::run;

    /** Answer one query against the bound task. */
    void runInto(const Vector &query,
                 AttentionResult &out) const override;

    /**
     * Incremental task extension: only the appended rows are
     * quantized — the cached words of the existing rows are
     * untouched — and the stage formats are re-derived for the grown
     * row count. Quantization is deterministic and only the capacity
     * annotations (expSum, output integer bits) depend on n, so
     * queries after append are bit-identical to a fresh bind of the
     * concatenated task.
     */
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;

    /**
     * Bytes of the quantized key/value SRAM lanes in the resolved
     * packed layout. This is the figure SessionCache budgets and
     * ShardedBackend aggregation see, so packing directly multiplies
     * session capacity.
     */
    std::size_t memoryBytes() const override;

    /**
     * Run the pipeline over a row subset (what approximate A3 feeds
     * the base pipeline after selection), reusing `out`'s buffers and
     * the calling thread's Scratch — the allocation-free path. `rows`
     * must be non-empty and may alias Scratch row buffers.
     */
    void runRowsInto(const Vector &query,
                     std::span<const std::uint32_t> rows,
                     AttentionResult &out) const;

    std::string name() const override { return "quantized"; }

    /** Bound task rows. */
    std::size_t rows() const override { return rows_; }

    /** Embedding dimension of the bound task. */
    std::size_t dims() const override { return dims_; }

    /** Resolved K/V lane layout. */
    PackedKvFormat packedFormat() const { return packed_; }

    /** Derived per-stage formats (Section III-B). */
    const PipelineFormats &formats() const { return formats_; }

    /** The exponent lookup table pair. */
    const ExpLut &expLut() const { return lut_; }

    std::unique_ptr<AttentionBackend> clone() const override;
    bool serializable() const override { return true; }

    /**
     * The packed lanes verbatim — the on-disk image is the in-memory
     * SRAM image, so restore() skips re-quantization entirely. The
     * formats and exponent LUT are not serialized: both derive
     * deterministically from (intBits, fracBits, rows, dims), so
     * restore() recomputes them bit-identically for a fraction of the
     * image size.
     */
    void serializeState(WireWriter &out) const override;
    std::size_t compact() override;

    /** Rebuild a bound datapath from a serializeState() payload;
     *  nullptr on a malformed or config-inconsistent payload. */
    static std::unique_ptr<QuantizedAttention>
    restore(const EngineConfig &config, WireReader &in);

  private:
    /** Stage formats and LUT for a rows x dims task in the resolved
     *  `packed` layout, with empty lanes; the public constructor and
     *  restore() fill them. */
    QuantizedAttention(int intBits, int fracBits, std::size_t rows,
                       std::size_t dims, PackedKvFormat packed);

    /** The pipeline over `rows` of the bound task. */
    void runCore(const Vector &query,
                 std::span<const std::uint32_t> rows,
                 AttentionResult &out, Scratch &scratch) const;

    /** Quantize and pack `count` task rows onto the lane arrays. */
    void packRows(const Matrix &keyRows, const Matrix &valueRows,
                  std::size_t count);

    /** visit(keyLanes, valueLanes) on the populated lane pair of the
     *  resolved layout (`self` is *this, const or not). */
    template <typename Self, typename Visitor>
    static void visitLanes(Self &self, Visitor &&visit);

    PipelineFormats formats_;
    ExpLut lut_;
    std::size_t rows_;
    std::size_t dims_;
    PackedKvFormat packed_;
    /**
     * Row-major pre-quantized words of the bound task (n x d), in the
     * resolved packed_ layout. The float matrices are not retained:
     * the datapath models the accelerator SRAM, which holds only
     * quantized words. Exactly one of the four lane arrays per side
     * is populated; all layouts are lossless (an input word has
     * intBits + fracBits + 1 bits, which the resolved lane always
     * covers), so the layouts are bit-identical in results and differ
     * only in footprint and kernel path.
     */
    std::vector<std::int32_t> keyQ_;
    std::vector<std::int32_t> valueQ_;
    std::vector<std::int16_t> keyQ16_;
    std::vector<std::int16_t> valueQ16_;
    std::vector<std::int8_t> keyQ8_;
    std::vector<std::int8_t> valueQ8_;
    /** Nibble-packed int4 lanes, (dims + 1) / 2 bytes per row. */
    std::vector<std::uint8_t> keyQ4_;
    std::vector<std::uint8_t> valueQ4_;
};

}  // namespace a3

#endif  // A3_ATTENTION_QUANTIZED_HPP
