/**
 * @file
 * Reference for trace::TraceGenerator::next(), written without its
 * shortcuts: every switch builds and fully sorts the (difficulty +
 * jitter, index) ranking, whatever its policy reads of it, and every
 * top-k unit draws its experts by Rng::categorical on a fresh copy of
 * the weights (re-summing the total on every draw and walking it
 * with `draw -= w[i]`). Each drift phase draws one expert popularity
 * tilt per expert count, shared by the switches with that count. The
 * production generator must return the same BatchRouting for the
 * same (graph, config, seed), batch after batch, which also pins its
 * position in the RNG stream.
 */

#ifndef ADYNA_TESTS_TRACE_ORACLE_HH
#define ADYNA_TESTS_TRACE_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "graph/dyngraph.hh"
#include "trace/trace.hh"

namespace adyna::oracle {

class TraceOracle
{
  public:
    TraceOracle(const graph::DynGraph &dg, trace::TraceConfig cfg,
                std::uint64_t seed)
        : dg_(dg), cfg_(cfg), rng_(seed)
    {
    }

    trace::BatchRouting next();

  private:
    using BatchRouting = trace::BatchRouting;
    using Sample = trace::TraceGenerator::Sample;
    using SwitchInfo = graph::SwitchInfo;
    using SwitchOutcome = trace::SwitchOutcome;
    using RoutingPolicy = graph::RoutingPolicy;

    double drawDifficulty();
    void maybeAdvancePhase();
    double phaseFraction(double base) const;
    void routeSwitch(const SwitchInfo &sw, std::vector<Sample> &samples,
                     BatchRouting &out);

    const graph::DynGraph &dg_;
    trace::TraceConfig cfg_;
    Rng rng_;
    std::uint64_t batches_ = 0;
    double phaseScale_ = 1.0;
    /** This phase's expert popularity tilt per expert count. */
    std::map<int, std::vector<double>> phaseExpertTilt_;
};

inline double
TraceOracle::drawDifficulty()
{
    double d = rng_.beta(cfg_.difficultyAlpha, cfg_.difficultyBeta);
    return std::clamp(d, 0.0, 1.0);
}

inline void
TraceOracle::maybeAdvancePhase()
{
    if (cfg_.driftStrength <= 0.0 || cfg_.driftPeriod <= 0)
        return;
    if (batches_ % static_cast<std::uint64_t>(cfg_.driftPeriod) != 0)
        return;
    // New phase: rescale gate marginals and redraw expert popularity.
    phaseScale_ =
        1.0 + cfg_.driftStrength * rng_.uniform(-0.5, 0.5);
    phaseExpertTilt_.clear();
}

inline double
TraceOracle::phaseFraction(double base) const
{
    return std::clamp(base * phaseScale_, 0.0, 1.0);
}

inline trace::BatchRouting
TraceOracle::next()
{
    maybeAdvancePhase();
    ++batches_;

    std::vector<Sample> samples(
        static_cast<std::size_t>(cfg_.batchSize));
    for (Sample &s : samples)
        s.difficulty = drawDifficulty();

    BatchRouting out;
    for (const SwitchInfo &sw : dg_.switches())
        routeSwitch(sw, samples, out);
    return out;
}

inline void
TraceOracle::routeSwitch(const SwitchInfo &sw,
                         std::vector<Sample> &samples,
                         BatchRouting &out)
{
    const graph::OpNode &node = dg_.graph().node(sw.switchOp);
    const RoutingPolicy &policy = node.policy;

    SwitchOutcome oc;
    oc.branchCounts.assign(
        static_cast<std::size_t>(policy.numBranches), 0);

    // Rows of the batch dimension per routed unit (token folding).
    const std::int64_t units = std::max<std::int64_t>(
        policy.unitsPerSample, 1);
    // Rows one sample contributes at this gate (its patch-select
    // multiplicity times the gate's token fold).
    const auto effRows = [&](std::size_t i) {
        return samples[i].rows * units;
    };

    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < samples.size(); ++i)
        if (samples[i].active)
            active.push_back(i);
    for (std::size_t i : active)
        oc.activeBefore += effRows(i);

    // Sort the active samples easiest-first with per-gate jitter, so
    // rank-based decisions correlate across gates through the shared
    // latent difficulty while retaining batch-to-batch variety.
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(active.size());
    for (std::size_t i : active) {
        const double jitter = rng_.normal(0.0, cfg_.gateNoise);
        ranked.emplace_back(samples[i].difficulty + jitter, i);
    }
    std::sort(ranked.begin(), ranked.end());

    switch (policy.kind) {
      case RoutingPolicy::Kind::EarlyExit: {
        // param = marginal exit fraction of the *original* batch.
        const double f = phaseFraction(policy.param);
        std::int64_t target = rng_.binomial(
            static_cast<std::uint32_t>(cfg_.batchSize), f);
        target = std::min<std::int64_t>(
            target, static_cast<std::int64_t>(ranked.size()));
        for (std::int64_t i = 0; i < target; ++i) {
            const std::size_t idx =
                ranked[static_cast<std::size_t>(i)].second;
            oc.branchCounts[0] += effRows(idx); // exit via the sink
            samples[idx].active = false;
        }
        oc.branchCounts[1] = oc.activeBefore - oc.branchCounts[0];
        oc.activeAfter = oc.branchCounts[1];
        break;
      }
      case RoutingPolicy::Kind::LayerSkip: {
        // param = skip fraction of the samples reaching this gate.
        const double f = phaseFraction(policy.param);
        std::int64_t target = rng_.binomial(
            static_cast<std::uint32_t>(ranked.size()), f);
        for (std::int64_t i = 0; i < target; ++i)
            oc.branchCounts[0] += // easiest samples skip
                effRows(ranked[static_cast<std::size_t>(i)].second);
        oc.branchCounts[1] = oc.activeBefore - oc.branchCounts[0];
        oc.activeAfter = oc.activeBefore; // merge restores the batch
        break;
      }
      case RoutingPolicy::Kind::TopKExperts: {
        // The first switch with this expert count in the phase draws
        // the count's tilt; later ones reuse it.
        const auto [tiltIt, fresh] =
            phaseExpertTilt_.try_emplace(policy.numBranches);
        std::vector<double> &tilt = tiltIt->second;
        if (fresh) {
            tilt.resize(static_cast<std::size_t>(policy.numBranches));
            for (double &t : tilt)
                t = std::exp(cfg_.driftStrength * rng_.normal());
        }
        std::vector<double> weights(
            static_cast<std::size_t>(policy.numBranches), 1.0);
        for (std::size_t e = 0; e < weights.size(); ++e) {
            if (e < policy.branchBias.size())
                weights[e] = policy.branchBias[e];
            weights[e] *= tilt[e];
        }
        // Units (tokens) route independently, each to topK
        // *distinct* experts. Small populations are sampled exactly
        // per unit; large ones use a binomial-chain multinomial per
        // choice round with a clamp-and-redistribute pass that
        // restores the no-expert-exceeds-the-population invariant.
        const std::int64_t totalUnits = oc.activeBefore;
        if (totalUnits <= 2048) {
            for (std::int64_t u = 0; u < totalUnits; ++u) {
                // Rng::weightedSampleWithoutReplacement, inlined.
                std::vector<double> w = weights;
                std::vector<std::size_t> experts;
                experts.reserve(static_cast<std::size_t>(policy.topK));
                for (int i = 0; i < policy.topK; ++i) {
                    const std::size_t idx = rng_.categorical(w);
                    experts.push_back(idx);
                    w[idx] = 0.0;
                }
                for (std::size_t e : experts)
                    ++oc.branchCounts[e];
            }
        } else {
            for (int choice = 0; choice < policy.topK; ++choice) {
                double wsum = 0.0;
                for (double w : weights)
                    wsum += w;
                std::int64_t remaining = totalUnits;
                for (std::size_t e = 0; e < weights.size(); ++e) {
                    if (remaining <= 0)
                        break;
                    const double p =
                        wsum > 0.0 ? weights[e] / wsum : 0.0;
                    std::int64_t c;
                    if (e + 1 == weights.size()) {
                        c = remaining;
                    } else {
                        c = rng_.binomial(
                            static_cast<std::uint32_t>(remaining),
                            std::clamp(p, 0.0, 1.0));
                    }
                    oc.branchCounts[e] += c;
                    remaining -= c;
                    wsum -= weights[e];
                }
            }
            // No expert can serve more units than exist: move the
            // excess to the least-loaded experts.
            for (std::size_t e = 0; e < oc.branchCounts.size(); ++e) {
                std::int64_t excess =
                    oc.branchCounts[e] - totalUnits;
                while (excess > 0) {
                    const auto it = std::min_element(
                        oc.branchCounts.begin(),
                        oc.branchCounts.end());
                    const std::int64_t room = totalUnits - *it;
                    const std::int64_t move =
                        std::min(excess, std::max<std::int64_t>(
                                             room, 1));
                    *it += move;
                    oc.branchCounts[e] -= move;
                    excess -= move;
                }
            }
        }
        oc.activeAfter = oc.activeBefore;
        break;
      }
      case RoutingPolicy::Kind::ChannelBlocks: {
        const int blocks = policy.numBranches;
        // FBS keeps the top-k most salient channels, and the
        // saliency ranking is largely consistent across samples: a
        // sample keeping k blocks activates the first k of the
        // popularity order (with a rare swap further down,
        // controlled by channelSwapProb). The tail blocks therefore only
        // light up for the hardest samples -- the rarely-executed
        // branches that motivate branch grouping (Section V-B).
        const double keep = phaseFraction(policy.param);
        const double swapProb = cfg_.channelSwapProb;
        for (const auto &[difficulty, idx] : ranked) {
            // Harder samples keep more channel blocks.
            const double frac = std::clamp(
                keep + (difficulty - 0.5) * 0.5 +
                    rng_.normal(0.0, cfg_.gateNoise),
                0.0, 1.0);
            std::int64_t k = std::llround(frac * blocks);
            k = std::clamp<std::int64_t>(k, 1, blocks);
            for (std::int64_t b = 0; b < k; ++b)
                oc.branchCounts[static_cast<std::size_t>(b)] +=
                    effRows(idx);
            // Occasional off-ranking pick: swap the last kept block
            // for a random tail block.
            if (k < blocks && rng_.bernoulli(swapProb)) {
                const std::int64_t tail =
                    rng_.uniformInt(k, blocks - 1);
                oc.branchCounts[static_cast<std::size_t>(tail)] +=
                    effRows(idx);
                oc.branchCounts[static_cast<std::size_t>(k - 1)] -=
                    effRows(idx);
            }
        }
        oc.activeAfter = oc.activeBefore;
        break;
      }
      case RoutingPolicy::Kind::PatchSelect: {
        // Units here are folded rows: `fold` patches per sample.
        // Kept rows continue on branch 0, dropped rows sink on
        // branch 1. Downstream gates see the per-sample kept counts
        // through Sample::rows. Nested patch selection is not
        // modelled.
        const std::int64_t fold =
            units > 1 ? units
                      : node.dims.n() /
                            std::max<std::int64_t>(cfg_.batchSize, 1);
        ADYNA_ASSERT(fold >= 1, "patch-select switch on unfolded batch");
        const double keep = phaseFraction(policy.param);
        for (const auto &[difficulty, idx] : ranked) {
            ADYNA_ASSERT(samples[idx].rows == 1,
                         "nested patch selection is not supported");
            // Harder images need more patches.
            const double frac = std::clamp(
                keep + (difficulty - 0.5) * cfg_.patchSpread +
                    rng_.normal(0.0, cfg_.gateNoise),
                0.0, 1.0);
            std::int64_t k = std::llround(frac * fold);
            k = std::clamp<std::int64_t>(k, 1, fold);
            samples[idx].rows = k;
            oc.branchCounts[0] += k;
        }
        const std::int64_t totalRows =
            static_cast<std::int64_t>(ranked.size()) * fold;
        oc.branchCounts[1] = totalRows - oc.branchCounts[0];
        oc.activeBefore = totalRows;
        oc.activeAfter = oc.branchCounts[0];
        break;
      }
    }

    out.outcomes[sw.switchOp] = std::move(oc);
}

/** The total Rng::categorical sums over @p weights. */
inline double
categoricalTotal(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    return total;
}

/** The index Rng::categorical's walk returns from draw @p x over
 * @p weights. */
inline std::size_t
categoricalWalk(const std::vector<double> &weights, double x)
{
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0)
            return i;
    }
    return weights.size() - 1;
}

/** The walk's value after step @p step (it exits at the first step
 * that leaves it negative). */
inline double
walkValueAfter(const std::vector<double> &weights, std::size_t step,
               double x)
{
    for (std::size_t i = 0; i <= step; ++i)
        x -= weights[i];
    return x;
}

} // namespace adyna::oracle

#endif // ADYNA_TESTS_TRACE_ORACLE_HH
