#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace adyna::trace {

using graph::OpKind;
using graph::RoutingPolicy;
using graph::SwitchInfo;

std::int64_t
BatchRouting::dynValue(const graph::DynGraph &dg, OpId op) const
{
    const graph::DynOpInfo &di = dg.info(op);
    if (!di.dynamic)
        return dg.graph().node(op).dims.n();
    const auto it = outcomes.find(di.ownerSwitch);
    ADYNA_ASSERT(it != outcomes.end(), "no routing outcome for switch ",
                 di.ownerSwitch, " needed by op ", op);
    const SwitchOutcome &oc = it->second;
    if (di.branch >= 0) {
        ADYNA_ASSERT(static_cast<std::size_t>(di.branch) <
                         oc.branchCounts.size(),
                     "branch out of range");
        return oc.branchCounts[di.branch];
    }
    return oc.activeAfter;
}

BatchRouting
mergeRoutings(const std::vector<const BatchRouting *> &parts)
{
    ADYNA_ASSERT(!parts.empty(), "cannot merge zero routings");
    BatchRouting out;
    for (const BatchRouting *part : parts) {
        for (const auto &[sw, oc] : part->outcomes) {
            SwitchOutcome &dst = out.outcomes[sw];
            if (dst.branchCounts.empty())
                dst.branchCounts.resize(oc.branchCounts.size(), 0);
            ADYNA_ASSERT(dst.branchCounts.size() ==
                             oc.branchCounts.size(),
                         "routings disagree on the branch count of "
                         "switch ",
                         sw);
            for (std::size_t b = 0; b < oc.branchCounts.size(); ++b)
                dst.branchCounts[b] += oc.branchCounts[b];
            dst.activeAfter += oc.activeAfter;
            dst.activeBefore += oc.activeBefore;
        }
    }
    ADYNA_ASSERT(out.outcomes.size() ==
                     parts.front()->outcomes.size(),
                 "routings cover different switch sets");
    return out;
}

std::int64_t
totalDynLoad(const graph::DynGraph &dg, const BatchRouting &routing)
{
    std::int64_t total = 0;
    for (OpId op : dg.dynamicOps())
        total += routing.dynValue(dg, op);
    return total;
}

double
topKDrawTotals(const std::vector<double> &weights,
               std::vector<double> &total_without)
{
    // Adding +0.0 leaves a sum unchanged, so the sum with 0.0 at z
    // equals categorical's re-sum of the zeroed weights bit for bit.
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) {
        ADYNA_ASSERT(w >= 0.0, "negative categorical weight ", w);
        total += w;
    }
    total_without.resize(n);
    for (std::size_t z = 0; z < n; ++z) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            sum += i == z ? 0.0 : weights[i];
        total_without[z] = sum;
    }
    return total;
}

void
walkThresholds(std::span<const double> weights,
               std::span<double> thresholds)
{
    // x_{i+1} = fl(x_i - w_i) is non-decreasing in x_i (rounding is
    // monotone) and never above x_i (w_i >= 0), so the walk from x
    // passes step i iff its value after step i is >= 0, and the set
    // of such x is [T_i, inf). Non-negative doubles order like their
    // bit patterns, so bisect over those; +inf passes every step.
    // Each step's set lies inside the previous one's, so
    // T_i >= T_{i-1} and each search starts at the last threshold.
    ADYNA_ASSERT(thresholds.size() == weights.size(),
                 "threshold table size ", thresholds.size(),
                 " for ", weights.size(), " weights");
    const auto passes = [&](std::size_t step, double x) {
        for (std::size_t i = 0; i <= step; ++i)
            x -= weights[i];
        return x >= 0.0;
    };
    std::uint64_t lo = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        ADYNA_ASSERT(weights[i] >= 0.0, "negative categorical weight ",
                     weights[i]);
        std::uint64_t hi = std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity());
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (passes(i, std::bit_cast<double>(mid)))
                hi = mid;
            else
                lo = mid + 1;
        }
        thresholds[i] = std::bit_cast<double>(lo);
    }
}

TraceGenerator::TraceGenerator(const graph::DynGraph &dg, TraceConfig cfg,
                               std::uint64_t seed)
    : dg_(dg), cfg_(cfg), rng_(seed), seed_(seed),
      topKTables_(dg.switches().size())
{
    ADYNA_ASSERT(cfg_.batchSize > 0, "batch size must be positive");
}

double
TraceGenerator::drawDifficulty()
{
    double d = rng_.beta(cfg_.difficultyAlpha, cfg_.difficultyBeta);
    return std::clamp(d, 0.0, 1.0);
}

void
TraceGenerator::maybeAdvancePhase()
{
    if (cfg_.driftStrength <= 0.0 || cfg_.driftPeriod <= 0)
        return;
    if (batches_ % static_cast<std::uint64_t>(cfg_.driftPeriod) != 0)
        return;
    // New phase: rescale gate marginals and redraw expert popularity.
    phaseScale_ =
        1.0 + cfg_.driftStrength * rng_.uniform(-0.5, 0.5);
    for (std::vector<double> &tilt : expertTilts_)
        tilt.clear();
}

double
TraceGenerator::phaseFraction(double base) const
{
    return std::clamp(base * phaseScale_, 0.0, 1.0);
}

BatchRouting
TraceGenerator::next()
{
    maybeAdvancePhase();
    ++batches_;

    samples_.assign(static_cast<std::size_t>(cfg_.batchSize), Sample{});
    for (Sample &s : samples_)
        s.difficulty = drawDifficulty();

    BatchRouting out;
    const std::vector<SwitchInfo> &switches = dg_.switches();
    for (std::size_t s = 0; s < switches.size(); ++s)
        routeSwitch(switches[s], s, out.outcomes[switches[s].switchOp]);
    return out;
}

void
TraceGenerator::routeSwitch(const SwitchInfo &sw, std::size_t index,
                            SwitchOutcome &oc)
{
    const graph::OpNode &node = dg_.graph().node(sw.switchOp);
    const RoutingPolicy &policy = node.policy;
    using Kind = RoutingPolicy::Kind;

    oc.branchCounts.assign(
        static_cast<std::size_t>(policy.numBranches), 0);

    // Rows of the batch dimension per routed unit (token folding).
    const std::int64_t units = std::max<std::int64_t>(
        policy.unitsPerSample, 1);
    // Rows one sample contributes at this gate (its patch-select
    // multiplicity times the gate's token fold).
    const auto effRows = [&](std::size_t i) {
        return samples_[i].rows * units;
    };

    active_.clear();
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        if (samples_[i].active) {
            active_.push_back(i);
            oc.activeBefore += effRows(i);
        }
    }

    // Rank the active samples easiest-first with per-gate jitter, so
    // rank-based decisions correlate across gates through the shared
    // latent difficulty while retaining batch-to-batch variety. Every
    // policy draws one jitter per active sample, in index order, since
    // the draws advance the stream; only ChannelBlocks and PatchSelect
    // read the rank order (they draw per sample in that order), so
    // only they sort. EarlyExit and LayerSkip take the easiest
    // `target` samples as a set, and TopKExperts reads no rank at all.
    ranked_.clear();
    if (policy.kind == Kind::TopKExperts) {
        for (std::size_t n = active_.size(); n > 0; --n)
            rng_.normal(0.0, cfg_.gateNoise);
    } else {
        for (std::size_t i : active_) {
            const double jitter = rng_.normal(0.0, cfg_.gateNoise);
            ranked_.emplace_back(samples_[i].difficulty + jitter, i);
        }
        if (policy.kind == Kind::ChannelBlocks ||
            policy.kind == Kind::PatchSelect)
            std::sort(ranked_.begin(), ranked_.end());
    }
    // The easiest `target` samples, in no particular order. Pairs
    // compare as a strict total order (the indices are distinct), so
    // nth_element puts the same set in front as a full sort would.
    const auto easiest = [&](std::int64_t target) {
        const auto mid = ranked_.begin() + target;
        std::nth_element(ranked_.begin(), mid, ranked_.end());
        return mid;
    };

    switch (policy.kind) {
      case Kind::EarlyExit: {
        // param = marginal exit fraction of the *original* batch.
        const double f = phaseFraction(policy.param);
        std::int64_t target = rng_.binomial(
            static_cast<std::uint32_t>(cfg_.batchSize), f);
        target = std::min<std::int64_t>(
            target, static_cast<std::int64_t>(ranked_.size()));
        for (auto it = ranked_.begin(), mid = easiest(target); it != mid;
             ++it) {
            oc.branchCounts[0] += effRows(it->second); // exit via sink
            samples_[it->second].active = false;
        }
        oc.branchCounts[1] = oc.activeBefore - oc.branchCounts[0];
        oc.activeAfter = oc.branchCounts[1];
        break;
      }
      case Kind::LayerSkip: {
        // param = skip fraction of the samples reaching this gate.
        const double f = phaseFraction(policy.param);
        const std::int64_t target = rng_.binomial(
            static_cast<std::uint32_t>(ranked_.size()), f);
        for (auto it = ranked_.begin(), mid = easiest(target); it != mid;
             ++it)
            oc.branchCounts[0] += effRows(it->second); // easiest skip
        oc.branchCounts[1] = oc.activeBefore - oc.branchCounts[0];
        oc.activeAfter = oc.activeBefore; // merge restores the batch
        break;
      }
      case Kind::TopKExperts: {
        const auto experts =
            static_cast<std::size_t>(policy.numBranches);
        if (expertTilts_.size() <= experts)
            expertTilts_.resize(experts + 1);
        std::vector<double> &tilt = expertTilts_[experts];
        if (tilt.empty()) {
            // Draw this phase's expert popularity tilt.
            tilt.resize(experts);
            for (double &t : tilt)
                t = std::exp(cfg_.driftStrength * rng_.normal());
        }
        weights_.assign(experts, 1.0);
        for (std::size_t e = 0; e < experts; ++e) {
            if (e < policy.branchBias.size())
                weights_[e] = policy.branchBias[e];
            weights_[e] *= tilt[e];
        }
        // Units (tokens) route independently, each to topK
        // *distinct* experts. Small populations are sampled exactly
        // per unit; large ones use a binomial-chain multinomial per
        // choice round with a clamp-and-redistribute pass that
        // restores the no-expert-exceeds-the-population invariant.
        const std::int64_t totalUnits = oc.activeBefore;
        if (totalUnits <= 2048) {
            drawTopKPerUnit(totalUnits, policy.topK,
                            topKTables_[index], oc);
        } else {
            for (int choice = 0; choice < policy.topK; ++choice) {
                double wsum = 0.0;
                for (double w : weights_)
                    wsum += w;
                std::int64_t remaining = totalUnits;
                for (std::size_t e = 0; e < weights_.size(); ++e) {
                    if (remaining <= 0)
                        break;
                    const double p =
                        wsum > 0.0 ? weights_[e] / wsum : 0.0;
                    std::int64_t c;
                    if (e + 1 == weights_.size()) {
                        c = remaining;
                    } else {
                        c = rng_.binomial(
                            static_cast<std::uint32_t>(remaining),
                            std::clamp(p, 0.0, 1.0));
                    }
                    oc.branchCounts[e] += c;
                    remaining -= c;
                    wsum -= weights_[e];
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
      case Kind::ChannelBlocks: {
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
        for (const auto &[difficulty, idx] : ranked_) {
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
      case Kind::PatchSelect: {
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
        for (const auto &[difficulty, idx] : ranked_) {
            ADYNA_ASSERT(samples_[idx].rows == 1,
                         "nested patch selection is not supported");
            // Harder images need more patches.
            const double frac = std::clamp(
                keep + (difficulty - 0.5) * cfg_.patchSpread +
                    rng_.normal(0.0, cfg_.gateNoise),
                0.0, 1.0);
            std::int64_t k = std::llround(frac * fold);
            k = std::clamp<std::int64_t>(k, 1, fold);
            samples_[idx].rows = k;
            oc.branchCounts[0] += k;
        }
        const std::int64_t totalRows =
            static_cast<std::int64_t>(ranked_.size()) * fold;
        oc.branchCounts[1] = totalRows - oc.branchCounts[0];
        oc.activeBefore = totalRows;
        oc.activeAfter = oc.branchCounts[0];
        break;
      }
    }
}

void
TraceGenerator::refreshTopKTable(TopKTable &table)
{
    if (table.weights == weights_)
        return;
    const std::size_t n = weights_.size();
    table.weights = weights_;
    table.total = topKDrawTotals(weights_, table.totalWithout);
    table.thresholds.resize(n * (n + 1));
    const std::span<double> rows(table.thresholds);
    walkThresholds(weights_, rows.first(n));
    unitWeights_ = weights_;
    for (std::size_t z = 0; z < n; ++z) {
        unitWeights_[z] = 0.0;
        walkThresholds(unitWeights_, rows.subspan((z + 1) * n, n));
        unitWeights_[z] = weights_[z];
    }
    ++topKTableBuilds_;
}

void
TraceGenerator::drawTopKPerUnit(std::int64_t units, int topK,
                                TopKTable &table, SwitchOutcome &oc)
{
    // Each draw is exactly Rng::categorical over the unit's weights
    // (its chosen experts zeroed): the same uniform() * total, with
    // the totals categorical would re-sum hoisted out of the unit
    // loop (topKDrawTotals), and the expert its `draw -= w[i]` walk
    // would return, read off the walk's own thresholds
    // (walkThresholds, walkIndex). The weights are fixed within a
    // switch and change only with the drift phase, so the table is
    // rebuilt once per (switch, phase). A prefix-sum CDF (or an
    // alias table) would compare the uniform against differently
    // rounded partial sums and so pick another expert near the
    // boundaries.
    refreshTopKTable(table);
    const std::size_t n = weights_.size();
    const std::span<const double> rows(table.thresholds);
    unitWeights_ = weights_;

    const auto draw = [&](std::size_t row, double sum) {
        ADYNA_ASSERT(sum > 0.0, "categorical weights sum to zero");
        return walkIndex(rows.subspan(row * n, n), rng_.uniform() * sum);
    };
    for (std::int64_t u = 0; u < units; ++u) {
        chosen_.clear();
        for (int k = 0; k < topK; ++k) {
            // Draws past the second re-sum, as categorical does.
            const std::size_t e =
                k == 0 ? draw(0, table.total)
                : k == 1
                    ? draw(1 + chosen_[0], table.totalWithout[chosen_[0]])
                    : rng_.categorical(unitWeights_);
            chosen_.push_back(e);
            unitWeights_[e] = 0.0;
            ++oc.branchCounts[e];
        }
        for (std::size_t e : chosen_)
            unitWeights_[e] = weights_[e];
    }
}

std::map<OpId, double>
TraceGenerator::profileExpectations(int batches) const
{
    TraceGenerator probe(dg_, cfg_, seed_ ^ 0x517cc1b727220a95ULL);
    std::map<OpId, double> sums;
    const auto dynOps = dg_.dynamicOps();
    for (int b = 0; b < batches; ++b) {
        const BatchRouting routing = probe.next();
        for (OpId op : dynOps)
            sums[op] += static_cast<double>(routing.dynValue(dg_, op));
    }
    for (auto &[op, sum] : sums)
        sum /= batches;
    return sums;
}

} // namespace adyna::trace
