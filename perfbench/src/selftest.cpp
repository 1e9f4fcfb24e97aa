/**
 * @file
 * Perturbation self-test: each output check must pass on a clean
 * output and fail once one value of that output is perturbed — a
 * flipped weight, a dropped kept row, a wrong byte on the wire, and a
 * lost completion. A check that passes a perturbed output checks
 * nothing.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "checks.hpp"
#include "families.hpp"
#include "serving/partial_merge.hpp"
#include "serving/remote_protocol.hpp"
#include "serving/sharded_backend.hpp"

namespace pb {

namespace {

int failures = 0;

void
report(const char *name, bool cleanPasses, bool perturbedFails)
{
    const bool ok = cleanPasses && perturbedFails;
    std::printf("self-test %-28s clean %s, perturbed %s: %s\n", name,
                cleanPasses ? "passes" : "FAILS",
                perturbedFails ? "caught" : "MISSED",
                ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
}

/** Swap the largest weight with the smallest nonzero one. */
void
flipWeight(AttentionResult &r)
{
    const auto top = std::max_element(r.weights.begin(), r.weights.end());
    auto low = top;
    for (auto it = r.weights.begin(); it != r.weights.end(); ++it)
        if (*it > 0.0f && *it < *low)
            low = it;
    if (low == top)
        *top *= 0.5f;
    else
        std::iter_swap(top, low);
}

}  // namespace

int
runSelfTest(const RunOptions &options)
{
    using a3::EngineConfig;
    using a3::EngineKind;
    const Context ctx = makeContext(options.seed, 320, 64, 1);
    const Vector &q = ctx.queries.front();
    std::string why;

    {
        EngineConfig config;
        config.kind = EngineKind::ExactFloat;
        AttentionResult r =
            a3::makeBackend(config, ctx.key, ctx.value)->run(q);
        const bool clean = checkExact(ctx.key, ctx.value, 320, q, r, why);
        flipWeight(r);
        report("exact flipped weight", clean,
               !checkExact(ctx.key, ctx.value, 320, q, r, why));
    }
    {
        EngineConfig config;
        config.kind = EngineKind::ApproxFloat;
        config.approx = a3::ApproxConfig::conservative();
        AttentionResult r =
            a3::makeBackend(config, ctx.key, ctx.value)->run(q);
        const bool clean =
            checkApprox(ctx.key, ctx.value, q, config.approx, r, why);
        r.kept.pop_back();
        report("approx dropped kept row", clean,
               !checkApprox(ctx.key, ctx.value, q, config.approx, r,
                            why));
    }
    for (const auto &spec : kindSpecs()) {
        if (spec.config.kind != EngineKind::ExactQuantized)
            continue;
        AttentionResult r =
            a3::makeBackend(spec.config, ctx.key, ctx.value)->run(q);
        const int i = spec.config.intBits, f = spec.config.fracBits;
        const bool clean =
            checkQuantized(ctx.key, ctx.value, q, i, f, r, why);
        flipWeight(r);
        report(spec.paperFormat ? "quant_paper flipped weight"
                                : "quant_int8 flipped weight",
               clean, !checkQuantized(ctx.key, ctx.value, q, i, f, r, why));
    }
    {
        // The reply frames of a two-shard query, decoded and merged
        // as the coordinator does; one payload byte is then wrong.
        EngineConfig config;
        config.kind = EngineKind::ExactFloat;
        a3::ShardedConfig sharding;
        sharding.shardRows = 160;
        const a3::ShardedBackend local(config, ctx.key, ctx.value,
                                       sharding);
        const AttentionResult expected = local.run(q);
        auto remoteResult = [&](bool corrupt, bool &decoded) {
            std::vector<a3::PartialResult> partials(2);
            std::vector<std::size_t> offsets(2);
            decoded = true;
            for (std::size_t s = 0; s < 2; ++s) {
                a3::PartialReplyPayload reply;
                reply.requestId = 1;
                reply.shardId = static_cast<std::uint32_t>(s);
                local.runUnitPartialInto(s, q, reply.partial);
                a3::Frame frame = a3::encodePartialReply(reply);
                if (corrupt && s == 1)
                    frame.payload[frame.payload.size() / 3] ^= 0x10;
                a3::PartialReplyPayload back;
                decoded = decoded &&
                          a3::decodePartialReply(frame, back).ok();
                partials[s] = std::move(back.partial);
                offsets[s] = local.shardOffset(s);
            }
            a3::PartialResult merged;
            a3::mergeShardPartials(partials, offsets, 320, 64, merged);
            AttentionResult out;
            a3::finalizePartialInto(merged, out);
            return out;
        };
        bool decoded = false;
        const bool clean =
            bitIdentical(remoteResult(false, decoded), expected) &&
            decoded;
        const AttentionResult bad = remoteResult(true, decoded);
        report("wire wrong byte", clean,
               !decoded || !bitIdentical(bad, expected));
    }
    {
        WorkloadParams params;
        workloadParams("paper_contexts", params);
        params.trace.durationSeconds = 0.3;
        SpanLog spans;
        std::filesystem::create_directories(options.workDir);
        ServingFamily serving(params, options.seed, options.workDir,
                              spans);
        CheckLog clean;
        serving.check(clean);
        serving.replayLosingOneCompletion();
        CheckLog perturbed;
        serving.check(perturbed);
        report("serving lost completion", clean.ok(), !perturbed.ok());
    }
    std::printf("self-test: %s\n",
                failures == 0 ? "every perturbation caught"
                              : "some checks are blind");
    return failures == 0 ? 0 : 1;
}

}  // namespace pb
