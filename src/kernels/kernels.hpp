/**
 * @file
 * Hot-loop primitives with runtime SIMD dispatch.
 *
 * The attention backends spend essentially all of their per-query time
 * in a small fixed vocabulary of loops: dot products between a query
 * and (gathered) key rows, the softmax reductions (max, exp-sum,
 * normalize), and the weighted accumulation of value rows. This layer
 * gives each of those loops a scalar reference implementation plus
 * SIMD variants (AVX2/FMA and SSE2 on x86, NEON on AArch64), bundled
 * into a `Kernels` function table that is selected once at startup by
 * CPUID-style runtime detection — the library itself is compiled
 * without `-march=native` and runs on any host, picking the widest ISA
 * the CPU actually supports.
 *
 * Determinism contract:
 *  - The scalar table performs exactly the element-at-a-time loops the
 *    backends used before this layer existed, so forcing it (see
 *    below) reproduces historical results bit for bit. Caveat: that
 *    historical pin assumes a baseline compile with no FMA
 *    contraction, which holds on x86-64 (no FMA in the baseline ISA);
 *    on AArch64 the pre-layer loops contracted to fmla under GCC's
 *    default -ffp-contract=fast while kernel TUs pin contraction off,
 *    so there the scalar table is last-ulp different from pre-layer
 *    builds (but still fixed and self-consistent).
 *  - Order-preserving ops — axpy, maxReduce, scale, divideBy,
 *    gatherWeightedSum — are bit-identical across every table: their
 *    SIMD forms keep the scalar evaluation order per element (max is
 *    exact under reassociation; multiply/divide are correctly rounded
 *    per lane; accumulations run in the same row order without FMA
 *    contraction).
 *  - dot / gatherDot reassociate the reduction (multiple SIMD
 *    accumulators, FMA), and expSumInPlace may use a vectorized
 *    polynomial exp. These agree with the scalar kernel to ~1e-6
 *    relative error and are themselves run-to-run deterministic for a
 *    fixed table choice.
 *  - The packed integer kernels — dotI16 / gatherDotI16 / dotI8 /
 *    gatherDotI8 / dotI4 / gatherDotI4 / axpyI16 / axpyI8 / axpyI4 —
 *    compute exact integer sums, so despite reassociating they are
 *    bit-identical across every table (integer addition is
 *    associative). They form a third, strongest class: exact on all
 *    ISAs, not merely order-preserving.
 *
 * All kernels assume finite inputs (the attention library never feeds
 * them NaN or infinity); behavior on non-finite values is unspecified
 * and may differ between tables — e.g. x86 MAXPS and std::max resolve
 * NaN operands differently.
 *
 * Setting the environment variable A3_FORCE_SCALAR_KERNELS to any
 * value other than "0" forces the scalar table regardless of CPU,
 * which is how the bit-exactness CI job pins results.
 */

#ifndef A3_KERNELS_KERNELS_HPP
#define A3_KERNELS_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace a3 {

/** Instruction set a kernel table is implemented with. */
enum class KernelIsa {
    Scalar,  ///< portable reference loops, always available
    Sse2,    ///< 4-wide x86 (baseline on x86-64)
    Avx2,    ///< 8-wide x86 with FMA
    Neon,    ///< 4-wide AArch64
};

/** Stable lowercase name ("scalar", "sse2", "avx2", "neon"). */
const char *kernelIsaName(KernelIsa isa);

/**
 * One complete set of hot-loop primitives. All pointers are non-null
 * in every table. Sizes are element counts; matrices are row-major
 * with `dims` contiguous floats per row.
 */
struct Kernels
{
    KernelIsa isa = KernelIsa::Scalar;

    /** sum_i a[i] * b[i] (reassociating; tolerance-class). */
    float (*dot)(const float *a, const float *b, std::size_t n);

    /** y[i] += a * x[i] (order-preserving). */
    void (*axpy)(float a, const float *x, float *y, std::size_t n);

    /** max_i v[i]; -inf for n == 0 (order-preserving: max is exact). */
    float (*maxReduce)(const float *v, std::size_t n);

    /**
     * v[i] = exp(v[i] - maxVal); returns sum_i of the results
     * (tolerance-class: SIMD tables may use a polynomial exp and a
     * reassociated sum).
     */
    float (*expSumInPlace)(float *v, std::size_t n, float maxVal);

    /** v[i] *= factor (order-preserving). */
    void (*scale)(float *v, std::size_t n, float factor);

    /** v[i] /= denom (order-preserving; IEEE division per lane). */
    void (*divideBy)(float *v, std::size_t n, float denom);

    /**
     * Gathered-row dot products: out[i] = dot(mat row rows[i], q) for
     * i in [0, count). Same tolerance class as dot.
     */
    void (*gatherDot)(const float *mat, std::size_t dims,
                      const std::uint32_t *rows, std::size_t count,
                      const float *q, float *out);

    /**
     * Gathered weighted accumulation: out[j] += sum_i w[i] *
     * mat[rows[i]][j], accumulated row by row in index order
     * (order-preserving). `out` is not cleared first.
     */
    void (*gatherWeightedSum)(const float *mat, std::size_t dims,
                              const std::uint32_t *rows,
                              std::size_t count, const float *w,
                              float *out);

    /*
     * Packed low-bit kernels. These MAC directly on the packed int16 /
     * int8 / nibble-packed int4 K/V lanes of the quantized backends
     * and dequantize only at the accumulator. All of them compute
     * exact integer sums and are bit-identical across every table.
     *
     * Preconditions (guaranteed by the quantized storage layer, see
     * packedKvLaneHolds() in fixed/packed.hpp): lanes lie in the
     * symmetric range [-32767, 32767] (int16), [-127, 127] (int8) or
     * [-7, 7] (int4) — the most negative code never occurs, so the
     * madd pair sums and the AVX2 maddubs sign-trick pairing cannot
     * saturate — and the quantized dot format (2i + ceil(log2 d) int
     * bits, 2f frac bits) fits 32 bits, so an int32 accumulator
     * cannot overflow. Nibble rows use the layout of
     * fixed/packed.hpp: element 2k in the low nibble, 2k+1 in the
     * high nibble of byte k, odd tail in a low nibble with the high
     * nibble zero.
     */

    /** sum_i a[i] * b[i] over signed bytes (exact on every table). */
    std::int32_t (*dotI8)(const std::int8_t *a, const std::int8_t *b,
                          std::size_t n);

    /** out[i] = dotI8(mat row rows[i], q); rows hold dims bytes. */
    void (*gatherDotI8)(const std::int8_t *mat, std::size_t dims,
                        const std::uint32_t *rows, std::size_t count,
                        const std::int8_t *q, std::int32_t *out);

    /** Nibble-packed dot: a holds ceil(n/2) bytes, q unpacked int8. */
    std::int32_t (*dotI4)(const std::uint8_t *a, const std::int8_t *q,
                          std::size_t n);

    /** out[i] = dotI4(mat row rows[i], q); ceil(dims/2)-byte rows. */
    void (*gatherDotI4)(const std::uint8_t *mat, std::size_t dims,
                        const std::uint32_t *rows, std::size_t count,
                        const std::int8_t *q, std::int32_t *out);

    /**
     * Weighted packed-row accumulation y[j] += w * x[j] into 64-bit
     * output lanes (exact; |w| must stay below 2^24 so SIMD tables
     * may form the per-lane products in 32 bits — the weight format
     * (0, 2f) guarantees this for every packable configuration).
     */
    void (*axpyI8)(std::int64_t w, const std::int8_t *x,
                   std::int64_t *y, std::size_t n);

    /** Nibble-packed variant of axpyI8 (x holds ceil(n/2) bytes). */
    void (*axpyI4)(std::int64_t w, const std::uint8_t *x,
                   std::int64_t *y, std::size_t n);

    /** sum_i a[i] * b[i] over int16 lanes (exact on every table). */
    std::int32_t (*dotI16)(const std::int16_t *a, const std::int16_t *b,
                           std::size_t n);

    /** out[i] = dotI16(mat row rows[i], q); rows hold dims lanes. */
    void (*gatherDotI16)(const std::int16_t *mat, std::size_t dims,
                         const std::uint32_t *rows, std::size_t count,
                         const std::int16_t *q, std::int32_t *out);

    /**
     * int16 variant of axpyI8. Instead of the |w| < 2^24 bound, every
     * product w * x[j] must fit int32 (the weight format (0, 2f)
     * against an i.f lane guarantees it whenever i + 3f <= 31).
     */
    void (*axpyI16)(std::int64_t w, const std::int16_t *x,
                    std::int64_t *y, std::size_t n);
};

/** The portable reference table (always available). */
const Kernels &scalarKernels();

/** SSE2 table, or nullptr when the build/CPU cannot run it. */
const Kernels *sse2Kernels();

/** AVX2+FMA table, or nullptr when the build/CPU cannot run it. */
const Kernels *avx2Kernels();

/** NEON table, or nullptr when the build/CPU cannot run it. */
const Kernels *neonKernels();

/** Every table the current process can run, widest last. */
std::vector<KernelIsa> availableKernelIsas();

/** Table for `isa`, falling back to scalar when unavailable. */
const Kernels &kernelsFor(KernelIsa isa);

/**
 * Detection policy, evaluated fresh on every call (no caching):
 * honors A3_FORCE_SCALAR_KERNELS, otherwise returns the widest table
 * the CPU supports.
 */
const Kernels &selectKernels();

/**
 * The process-wide active table the backends dispatch through.
 * Resolved via selectKernels() on first use and cached; thread-safe.
 */
const Kernels &activeKernels();

/**
 * Override the active table (benchmarks measuring scalar-vs-SIMD,
 * tests). The table must outlive its use; the built-in tables are
 * static. Not thread-safe against concurrent attention runs.
 */
void setActiveKernels(const Kernels &kernels);

}  // namespace a3

#endif  // A3_KERNELS_KERNELS_HPP
