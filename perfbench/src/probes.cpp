/**
 * @file
 * Kernel-table probes and the benchmark's own roofline probes, run in
 * the same process over a working set the size of the workload's
 * largest context. Bytes are computed from tensor sizes (the lanes a
 * kernel streams once per call), not counted by hardware.
 */
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "families.hpp"
#include "kernels/kernels.hpp"

namespace pb {

namespace {

/** Median over 9 measurements of bytes/s for `body`, each
 *  measurement repeating it until 5 ms have passed. */
template <typename Body>
double
medianRate(double bytesPerCall, Body &&body)
{
    std::vector<double> rates;
    for (int m = 0; m < 9; ++m) {
        std::size_t calls = 0;
        const double t0 = now();
        double t1 = t0;
        do {
            body();
            ++calls;
            t1 = now();
        } while (t1 - t0 < 0.005);
        rates.push_back(bytesPerCall * static_cast<double>(calls) /
                        (t1 - t0));
    }
    return median(rates);
}

volatile float gSink = 0.0f;

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) double
fmaFlops(std::size_t iterations)
{
    __m256 acc[8];
    for (int i = 0; i < 8; ++i)
        acc[i] = _mm256_set1_ps(static_cast<float>(i) * 1e-3f);
    const __m256 a = _mm256_set1_ps(0.999999f);
    const __m256 b = _mm256_set1_ps(1e-7f);
    for (std::size_t it = 0; it < iterations; ++it)
        for (int i = 0; i < 8; ++i)
            acc[i] = _mm256_fmadd_ps(acc[i], a, b);
    __m256 sum = acc[0];
    for (int i = 1; i < 8; ++i)
        sum = _mm256_add_ps(sum, acc[i]);
    float lanes[8];
    _mm256_storeu_ps(lanes, sum);
    gSink = lanes[0];
    return static_cast<double>(iterations) * 8 * 8 * 2;
}
#endif

double
scalarFlops(std::size_t iterations)
{
    float acc[8] = {};
    for (std::size_t it = 0; it < iterations; ++it)
        for (float &x : acc)
            x = x * 0.999999f + 1e-7f;
    gSink = acc[0] + acc[7];
    return static_cast<double>(iterations) * 8 * 2;
}

}  // namespace

void
kernelLayerMetrics(const Context &ctx, Metrics &out)
{
    const a3::Kernels &k = a3::activeKernels();
    const std::size_t n = ctx.key.rows();
    const std::size_t d = ctx.key.cols();
    const float *key = ctx.key.data().data();
    const float *value = ctx.value.data().data();
    const Vector &q = ctx.queries.front();
    const double floatBytes = static_cast<double>(n * d * sizeof(float));

    std::vector<float> scores(n);
    out["kernels.dot_gbps"] = {
        medianRate(floatBytes,
                   [&] {
                       for (std::size_t r = 0; r < n; ++r)
                           scores[r] = k.dot(key + r * d, q.data(), d);
                   }) /
            1e9,
        "GB/s"};

    // Every other row, the gathered access pattern of candidate
    // scoring.
    std::vector<std::uint32_t> rows;
    for (std::size_t r = 0; r < n; r += 2)
        rows.push_back(static_cast<std::uint32_t>(r));
    const double gatherBytes =
        static_cast<double>(rows.size() * d * sizeof(float));
    out["kernels.gather_dot_gbps"] = {
        medianRate(gatherBytes,
                   [&] {
                       k.gatherDot(key, d, rows.data(), rows.size(),
                                   q.data(), scores.data());
                   }) /
            1e9,
        "GB/s"};

    std::vector<float> acc(d, 0.0f);
    out["kernels.axpy_gbps"] = {
        medianRate(floatBytes,
                   [&] {
                       for (std::size_t r = 0; r < n; ++r)
                           k.axpy(1e-3f, value + r * d, acc.data(), d);
                   }) /
            1e9,
        "GB/s"};

    // int8 lanes: the keys at 4 fraction bits, as the quantized
    // backends store them.
    std::vector<std::int8_t> key8(n * d), q8(d);
    for (std::size_t i = 0; i < n * d; ++i)
        key8[i] = static_cast<std::int8_t>(
            std::clamp(std::nearbyint(key[i] * 16.0f), -127.0f, 127.0f));
    for (std::size_t j = 0; j < d; ++j)
        q8[j] = static_cast<std::int8_t>(
            std::clamp(std::nearbyint(q[j] * 16.0f), -127.0f, 127.0f));
    std::vector<std::int32_t> dots(n);
    const double byteLanes = static_cast<double>(n * d);
    out["kernels.dot_i8_gbps"] = {
        medianRate(byteLanes,
                   [&] {
                       for (std::size_t r = 0; r < n; ++r)
                           dots[r] = k.dotI8(key8.data() + r * d,
                                             q8.data(), d);
                   }) /
            1e9,
        "GB/s"};
    out["kernels.gather_dot_i8_gbps"] = {
        medianRate(static_cast<double>(rows.size() * d),
                   [&] {
                       k.gatherDotI8(key8.data(), d, rows.data(),
                                     rows.size(), q8.data(),
                                     dots.data());
                   }) /
            1e9,
        "GB/s"};

    // STREAM-style triad over three arrays of n * d floats.
    const std::size_t len = n * d;
    std::vector<float> a(len, 0.0f), b(len, 1.0f), c(len, 2.0f);
    out["roofline.triad_gbps"] = {
        medianRate(3.0 * static_cast<double>(len * sizeof(float)),
                   [&] {
                       float *pa = a.data();
                       const float *pb = b.data();
                       const float *pc = c.data();
                       for (std::size_t i = 0; i < len; ++i)
                           pa[i] = pb[i] + 0.5f * pc[i];
                       gSink = pa[len / 2];
                   }) /
            1e9,
        "GB/s"};

    // Peak FMA throughput: eight independent chains per lane set.
    const std::size_t iterations = 1u << 16;
    double flops = 0.0;
    bool haveFma = false;
#if defined(__x86_64__)
    haveFma = __builtin_cpu_supports("fma") &&
              __builtin_cpu_supports("avx2");
#endif
    const double rate = medianRate(1.0, [&] {
#if defined(__x86_64__)
        if (haveFma) {
            flops = fmaFlops(iterations);
            return;
        }
#endif
        flops = scalarFlops(iterations);
    });
    out["roofline.fma_gflops"] = {rate * flops / 1e9, "GFLOP/s"};
}

}  // namespace pb
