/**
 * @file
 * Shared pieces of the end-to-end benchmark: the clock, the
 * interleaved window sampler, the in-memory span log, the check log,
 * and the metric table every workload fills.
 *
 * Timing statistic. On this kind of small shared VM a single-threaded
 * loop moves between host states that last from seconds to minutes,
 * so the plain median of one run moves by tens of percent between
 * runs. Every timed operation therefore runs interleaved with the
 * others in short slices; each round of slices gives one window value
 * per series (the median of that slice's samples), and the reported
 * figure is the best (lowest) window value of the run. Host noise only
 * ever slows a window down, and a run of many windows reaches the
 * host's fast state at least once even in noisy periods, where the
 * lower quartile of the windows no longer does (perfbench/README.md
 * gives the measured spreads).
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attention/types.hpp"
#include "tensor/matrix.hpp"

namespace pb {

using a3::AttentionResult;
using a3::Matrix;
using a3::Vector;

/** Monotonic seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile of an unsorted sample (q in [0,1]). */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

// ---------------------------------------------------------------- spans

/** One recorded span: a call into a layer's public function. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
};

/**
 * In-memory span log, recorded from the benchmark thread around each
 * public call. Disabled logs cost one branch per scope. Spans are
 * written out once, when the run ends.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity = 1u << 20)
        : capacity_(capacity)
    {
    }

    bool enabled() const { return enabled_; }
    void setEnabled(bool on);

    /** RAII scope: records [construction, destruction). */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::int64_t index_ = -1;
        std::int64_t savedParent_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }
    std::size_t dropped() const { return dropped_; }

    /** Mean duration in microseconds of spans named `name` (0 if
     *  none). */
    double meanUs(const std::string &name) const;

    /** Write every span as a JSON array; returns false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::size_t capacity_;
    std::size_t dropped_ = 0;
    std::int64_t current_ = -1;
    std::vector<Span> spans_;
};

// -------------------------------------------------------------- checks

/** Accumulates correctness failures; the run is correct iff empty. */
struct CheckLog
{
    std::vector<std::string> failures;
    std::size_t checked = 0;

    bool ok() const { return failures.empty(); }
    void fail(const std::string &what)
    {
        if (failures.size() < 32)
            failures.push_back(what);
        else if (failures.size() == 32)
            failures.push_back("... further failures omitted");
    }
};

// ------------------------------------------------------------- sampler

/**
 * Interleaved window sampler. Each op performs one call and reports
 * samples into named series; a round runs every op for its slice (at
 * least one call), rotating the start op, and closes one window per
 * series with the median of that round's samples.
 */
class Sampler
{
  public:
    /** Index of a series, created on first use. */
    std::size_t series(const std::string &name);

    /** Record one sample (a lower-is-better quantity). */
    void add(std::size_t series, double value)
    {
        slices_[series].push_back(value);
    }

    /**
     * Register an op. `call` performs one unit of work and returns the
     * number of operations it attempted (queries answered).
     */
    void addOp(std::string name, double sliceSeconds,
               std::function<std::uint64_t()> call);

    /** Run rounds until `seconds` have elapsed (at least `minRounds`
     *  rounds). `beforeRound(r)` runs untimed before round r. */
    void run(double seconds, std::size_t minRounds,
             const std::function<void(std::size_t)> &beforeRound = {});

    /** Lowest window value of a series over the rounds where
     *  `roundFilter(r)` holds, or 0 if there are none. */
    double best(const std::string &name,
                const std::function<bool(std::size_t)> &roundFilter) const;

    /** Window count and quantiles of every series, to stderr. */
    void describe() const;

    std::uint64_t attempted() const { return attempted_; }

  private:
    struct Op
    {
        std::string name;
        double slice = 0.05;
        std::function<std::uint64_t()> call;
    };
    std::vector<Op> ops_;
    std::map<std::string, std::size_t> index_;
    std::vector<std::vector<double>> slices_;
    /** windows_[series] = (round, value) pairs. */
    std::vector<std::vector<std::pair<std::size_t, double>>> windows_;
    std::uint64_t attempted_ = 0;
    std::size_t rounds_ = 0;
};

// -------------------------------------------------------------- metrics

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metric table printed as the run's final JSON line. */
using Metrics = std::map<std::string, Metric>;

/** Options shared by every workload. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workerBin;
    std::string workDir;
    /** Process start, the origin of setup_s. */
    double processStart = 0.0;
};

/** Outcome of one workload run. */
struct RunResult
{
    Metrics metrics;
    CheckLog checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Runs one workload (workloads.cpp). */
RunResult runWorkload(const RunOptions &options);

/** Perturbation self-test (selftest.cpp); returns the exit code. */
int runSelfTest(const RunOptions &options);

}  // namespace pb

#endif  // PERFBENCH_BENCH_HPP
