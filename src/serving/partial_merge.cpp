#include "serving/partial_merge.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"

namespace a3 {

std::vector<std::size_t>
growShardLayout(std::vector<std::size_t> sizes, std::size_t added,
                std::size_t shardRows)
{
    a3Assert(shardRows > 0, "shardRows must be positive");
    if (sizes.empty()) {
        a3Assert(added > 0, "cannot partition an empty task");
        const std::size_t shardCount =
            (added + shardRows - 1) / shardRows;
        sizes.assign(shardCount, added / shardCount);
        for (std::size_t s = 0; s < added % shardCount; ++s)
            ++sizes[s];
        return sizes;
    }
    while (added > 0) {
        if (sizes.back() >= shardRows)
            sizes.push_back(0);
        const std::size_t take =
            std::min(shardRows - sizes.back(), added);
        sizes.back() += take;
        added -= take;
    }
    return sizes;
}

void
mergeShardPartials(const std::vector<PartialResult> &partials,
                   const std::vector<std::size_t> &offsets,
                   std::size_t totalRows, std::size_t dims,
                   PartialResult &out)
{
    a3Assert(!partials.empty(), "nothing to merge");
    a3Assert(partials.size() == offsets.size(),
             "one offset per partial");
    const Kernels &k = activeKernels();

    // Global max first: the shard holding it gets scale exp(0) = 1
    // exactly, so its terms pass through the merge untouched.
    float maxScore = partials.front().maxScore;
    for (const PartialResult &p : partials)
        maxScore = std::max(maxScore, p.maxScore);

    out.scores.assign(totalRows, 0.0f);
    out.expWeights.assign(totalRows, 0.0f);
    out.candidates.clear();
    out.kept.clear();
    out.iterations = 0;
    out.maxScore = maxScore;
    out.expSum = 0.0f;
    out.accum.assign(dims, 0.0f);

    // Serial merge in shard-index order, regardless of how the
    // partials were computed — the fixed order that makes parallel,
    // serial, and remote fan-out bit-identical.
    for (std::size_t s = 0; s < partials.size(); ++s) {
        const PartialResult &p = partials[s];
        const std::size_t offset = offsets[s];
        const std::size_t local = p.expWeights.size();
        a3Assert(offset + local <= totalRows,
                 "shard partial overruns the task rows");
        a3Assert(p.accum.size() == dims,
                 "shard partial dimension mismatch");
        const float scale = std::exp(p.maxScore - maxScore);

        std::copy(p.scores.begin(), p.scores.end(),
                  out.scores.begin() +
                      static_cast<std::ptrdiff_t>(offset));
        std::copy(p.expWeights.begin(), p.expWeights.end(),
                  out.expWeights.begin() +
                      static_cast<std::ptrdiff_t>(offset));
        k.scale(out.expWeights.data() + offset, local, scale);
        k.axpy(scale, p.accum.data(), out.accum.data(), dims);
        out.expSum += p.expSum * scale;
        out.iterations += p.iterations;

        const auto globalId = [offset](std::uint32_t id) {
            return static_cast<std::uint32_t>(offset + id);
        };
        for (const std::uint32_t id : p.candidates)
            out.candidates.push_back(globalId(id));
        for (const std::uint32_t id : p.kept)
            out.kept.push_back(globalId(id));
    }
}

}  // namespace a3
