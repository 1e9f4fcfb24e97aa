#include "bench.hpp"

#include <cmath>
#include <cstdio>

namespace pb {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------- spans

void
SpanLog::setEnabled(bool on)
{
    enabled_ = on;
    if (on && spans_.capacity() < capacity_)
        spans_.reserve(capacity_);
}

SpanLog::Scope::Scope(SpanLog &log, const char *name,
                      std::uint64_t request)
    : log_(log)
{
    if (!log_.enabled_)
        return;
    if (log_.spans_.size() >= log_.capacity_) {
        ++log_.dropped_;
        return;
    }
    Span span;
    span.name = name;
    span.parent = log_.current_;
    span.request = request;
    index_ = static_cast<std::int64_t>(log_.spans_.size());
    savedParent_ = log_.current_;
    log_.current_ = index_;
    span.start = now();
    log_.spans_.push_back(span);
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    log_.spans_[static_cast<std::size_t>(index_)].end = now();
    log_.current_ = savedParent_;
}

double
SpanLog::meanUs(const std::string &name) const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const Span &span : spans_) {
        if (name == span.name) {
            total += span.end - span.start;
            ++n;
        }
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n) * 1e6;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                     "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}%s\n",
                     i, s.name, (s.start - origin) * 1e6,
                     (s.end - origin) * 1e6,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
}

// ------------------------------------------------------------- sampler

std::size_t
Sampler::series(const std::string &name)
{
    const auto it = index_.find(name);
    if (it != index_.end())
        return it->second;
    const std::size_t id = slices_.size();
    index_.emplace(name, id);
    slices_.emplace_back();
    windows_.emplace_back();
    return id;
}

void
Sampler::addOp(std::string name, double sliceSeconds,
               std::function<std::uint64_t()> call)
{
    ops_.push_back({std::move(name), sliceSeconds, std::move(call)});
}

void
Sampler::run(double seconds, std::size_t minRounds,
             const std::function<void(std::size_t)> &beforeRound)
{
    const double deadline = now() + seconds;
    for (std::size_t round = 0;; ++round) {
        if (round >= minRounds && now() >= deadline)
            break;
        if (beforeRound)
            beforeRound(round);
        for (std::size_t k = 0; k < ops_.size(); ++k) {
            Op &op = ops_[(round + k) % ops_.size()];
            const double sliceEnd = now() + op.slice;
            do {
                attempted_ += op.call();
            } while (now() < sliceEnd);
        }
        for (std::size_t s = 0; s < slices_.size(); ++s) {
            if (slices_[s].empty())
                continue;
            windows_[s].emplace_back(round, median(slices_[s]));
            slices_[s].clear();
        }
        rounds_ = round + 1;
    }
}

void
Sampler::describe() const
{
    std::fprintf(stderr, "perfbench: %zu rounds\n", rounds_);
    for (const auto &[name, id] : index_) {
        std::vector<double> values;
        for (const auto &window : windows_[id])
            values.push_back(window.second);
        std::fprintf(stderr,
                     "  %-24s windows %3zu  min %.6g  p10 %.6g  q1 %.6g  "
                     "median %.6g  q3 %.6g\n",
                     name.c_str(), values.size(), quantile(values, 0.0),
                     quantile(values, 0.1), quantile(values, 0.25),
                     quantile(values, 0.5), quantile(values, 0.75));
    }
}

double
Sampler::best(const std::string &name,
              const std::function<bool(std::size_t)> &roundFilter) const
{
    const auto it = index_.find(name);
    if (it == index_.end())
        return 0.0;
    std::vector<double> values;
    for (const auto &[round, value] : windows_[it->second])
        if (roundFilter(round))
            values.push_back(value);
    return quantile(values, 0.0);
}

}  // namespace pb
