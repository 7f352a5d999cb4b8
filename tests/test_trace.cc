/**
 * @file
 * Unit and property tests for the dynamism trace generator:
 * determinism, conservation laws per routing policy, marginal
 * calibration, difficulty correlation across gates, and drift; and
 * exact agreement with the reference generator in trace_oracle.hh.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/parser.hh"
#include "graph/transforms.hh"
#include "models/models.hh"
#include "models/random.hh"
#include "trace/trace.hh"
#include "trace_oracle.hh"

namespace {

using namespace adyna;
using namespace adyna::graph;
using namespace adyna::trace;

DynGraph
earlyExitModel(std::int64_t batch, double f0, double f1)
{
    Graph g("ee");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 64, 64));
    OpId l0 = g.addMatMul("l0", in, 64, 64);
    OpId sw0 = addEarlyExit(g, "g0", l0, 2, f0, 0);
    OpId l1 = buildBranch(g, sw0, 1, [](Graph &gg, OpId s) {
        return gg.addMatMul("l1", s, 64, 64);
    });
    OpId sw1 = addEarlyExit(g, "g1", l1, 2, f1, 1);
    OpId l2 = buildBranch(g, sw1, 1, [](Graph &gg, OpId s) {
        return gg.addMatMul("l2", s, 64, 64);
    });
    g.addOutput("out", l2);
    return parseModel(g);
}

DynGraph
skipModel(std::int64_t batch, double skip)
{
    Graph g("skip");
    OpId in = g.addInput("in", LoopDims::conv(batch, 16, 16, 8, 8, 1, 1));
    OpId merge = addLayerSkip(g, "b0", in, skip, 0, [](Graph &gg, OpId s) {
        return gg.addConv("b0.conv", s,
                          LoopDims::conv(64, 16, 16, 8, 8, 3, 3));
    });
    g.addOutput("out", merge);
    return parseModel(g);
}

DynGraph
moeModel(std::int64_t batch, int experts, int topk,
         std::vector<double> bias = {})
{
    Graph g("moe");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 128, 128));
    OpId t = g.addMatMul("proj", in, 128, 128);
    OpId merge = addMoE(g, "moe", t, experts, topk, bias,
                        [](Graph &gg, OpId s) {
                            return gg.addMatMul("ffn", s, 128, 128);
                        });
    g.addOutput("out", merge);
    return parseModel(g);
}

/** Two MoE layers with different expert counts: 2 experts top-1,
 * then 5 experts top-2. */
DynGraph
mixedMoeModel(std::int64_t batch)
{
    Graph g("mixed-moe");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 128, 128));
    OpId t = g.addMatMul("proj", in, 128, 128);
    OpId m2 = addMoE(g, "moe2", t, 2, 1, {}, [](Graph &gg, OpId s) {
        return gg.addMatMul("ffn2", s, 128, 128);
    });
    OpId m5 = addMoE(g, "moe5", m2, 5, 2, {1, 2, 0.5, 3, 1},
                     [](Graph &gg, OpId s) {
                         return gg.addMatMul("ffn5", s, 128, 128);
                     });
    g.addOutput("out", m5);
    return parseModel(g);
}

TraceConfig
stationary(std::int64_t batch)
{
    TraceConfig cfg;
    cfg.batchSize = batch;
    cfg.driftStrength = 0.0;
    return cfg;
}

/** TraceGenerator and the oracle, both built from (@p dg, @p cfg,
 * @p seed), return equal routings, field by field, for @p batches
 * batches. A generator whose RNG stream position slips from the
 * oracle's shows up in the next batch's difficulty draws. */
void
expectMatchesOracle(const DynGraph &dg, const TraceConfig &cfg,
                    std::uint64_t seed, int batches,
                    const std::string &what)
{
    TraceGenerator gen(dg, cfg, seed);
    oracle::TraceOracle ref(dg, cfg, seed);
    for (int b = 0; b < batches; ++b) {
        const BatchRouting got = gen.next();
        const BatchRouting want = ref.next();
        ASSERT_EQ(got.outcomes.size(), want.outcomes.size())
            << what << " batch " << b;
        for (const auto &[sw, oc] : want.outcomes) {
            const auto it = got.outcomes.find(sw);
            ASSERT_NE(it, got.outcomes.end())
                << what << " batch " << b << " switch " << sw;
            EXPECT_EQ(it->second.branchCounts, oc.branchCounts)
                << what << " batch " << b << " switch " << sw;
            EXPECT_EQ(it->second.activeBefore, oc.activeBefore)
                << what << " batch " << b << " switch " << sw;
            EXPECT_EQ(it->second.activeAfter, oc.activeAfter)
                << what << " batch " << b << " switch " << sw;
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

// Paper models (Tutel-MoE at batch 1 takes the per-unit top-k path,
// at batch 128 the binomial chain), seeded random graphs (top-1 and
// top-2 MoE over 2..8 experts, patch select, channel blocks), and a
// top-3 MoE; several seeds, with and without drift (a short period
// so phases, and with them the expert tilts, change mid-run).
TEST(Trace, MatchesOracle)
{
    // N = 12 batches, plus one that exposes a slip in batch N.
    constexpr int kBatches = 13;
    const std::uint64_t seeds[] = {1, 7919, 0x9e3779b97f4a7c15ULL};
    struct Case
    {
        std::string name;
        DynGraph dg;
        TraceConfig cfg;
    };
    std::vector<Case> cases;
    for (std::int64_t batch : {1, 128}) {
        const std::string at = "@" + std::to_string(batch);
        std::vector<std::string> names = models::workloadNames();
        names.push_back("adavit");
        for (const std::string &name : names) {
            const models::ModelBundle b = models::buildByName(name, batch);
            cases.push_back({name + at, parseModel(b.graph), b.traceConfig});
        }
        for (std::uint64_t s = 1; s <= 6; ++s) {
            models::RandomModelParams rp;
            rp.batch = batch;
            rp.dynamismProb = 0.9;
            rp.maxExperts = 2 + static_cast<int>(s % 7);
            const models::ModelBundle b = models::buildRandomDynNN(rp, s);
            cases.push_back({"random" + std::to_string(s) + at,
                             parseModel(b.graph), b.traceConfig});
        }
        cases.push_back({"top3" + at,
                         moeModel(batch, 6, 3, {1, 2, 0.5, 3, 1, 1}),
                         stationary(batch)});
        cases.push_back(
            {"mixed-moe" + at, mixedMoeModel(batch), stationary(batch)});
    }
    for (const Case &c : cases) {
        for (bool drift : {false, true}) {
            TraceConfig cfg = c.cfg;
            cfg.driftStrength = drift ? 0.3 : 0.0;
            cfg.driftPeriod = 4;
            for (std::uint64_t seed : seeds) {
                expectMatchesOracle(c.dg, cfg, seed, kBatches,
                                    c.name + (drift ? " drift" : "") +
                                        " seed " + std::to_string(seed));
                if (HasFailure())
                    return;
            }
        }
    }
}

// The per-switch totals equal categorical's re-sums bit for bit, on
// weights spread over many orders of magnitude, where any other
// summation order rounds differently.
TEST(Trace, TopKDrawTotalsMatchCategoricalResum)
{
    Rng rng(5);
    std::vector<double> weights;
    std::vector<double> totalWithout;
    for (int trial = 0; trial < 200; ++trial) {
        weights.resize(static_cast<std::size_t>(rng.uniformInt(2, 64)));
        for (double &w : weights)
            w = rng.bernoulli(0.1) ? 0.0 : std::exp(rng.uniform(-30, 30));
        const double total = topKDrawTotals(weights, totalWithout);
        EXPECT_EQ(total, oracle::categoricalTotal(weights));
        ASSERT_EQ(totalWithout.size(), weights.size());
        for (std::size_t z = 0; z < weights.size(); ++z) {
            std::vector<double> zeroed = weights;
            zeroed[z] = 0.0;
            EXPECT_EQ(totalWithout[z], oracle::categoricalTotal(zeroed))
                << "trial " << trial << " z " << z;
        }
        if (HasFailure())
            return;
    }
}

// The walk thresholds reproduce categorical's `draw -= w[i]` walk
// exactly, on weights with zeros, subnormals and values spread over
// many orders of magnitude: each threshold passes its step, the next
// double below it does not, and the count equals the walk on random
// draws and one ulp either side of every threshold.
TEST(Trace, TopKThresholdsMatchWalk)
{
    constexpr double kMinSub = std::numeric_limits<double>::denorm_min();
    constexpr double kMinNorm = std::numeric_limits<double>::min();
    std::vector<std::vector<double>> cases{
        {1.0},
        {0.0, 0.0, 1.0},
        {1.0, 0.0, 0.0},
        {kMinSub, 1.0, kMinSub, 1e300},
        {1e-300, kMinNorm, 3 * kMinSub, 0.0, 1e-310},
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
        {1e308, 5e307},
    };
    Rng rng(11);
    while (cases.size() < 200) {
        std::vector<double> w(
            static_cast<std::size_t>(rng.uniformInt(1, 16)));
        for (double &x : w) {
            const double kind = rng.uniform();
            x = kind < 0.15   ? 0.0
                : kind < 0.3 ? kMinSub * static_cast<double>(
                                             rng.uniformInt(1, 1 << 20))
                             : std::exp(rng.uniform(-700, 700));
        }
        cases.push_back(std::move(w));
    }

    std::vector<double> thresholds;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const std::vector<double> &w = cases[c];
        const std::size_t n = w.size();
        thresholds.assign(n, -1.0);
        walkThresholds(w, thresholds);
        const auto expectSameIndex = [&](double x) {
            EXPECT_EQ(walkIndex(thresholds, x),
                      oracle::categoricalWalk(w, x))
                << "case " << c << " draw " << x;
        };
        for (std::size_t i = 0; i < n; ++i) {
            const double t = thresholds[i];
            ASSERT_GE(t, 0.0) << "case " << c << " step " << i;
            if (i > 0) {
                EXPECT_GE(t, thresholds[i - 1]) << "case " << c;
            }
            EXPECT_GE(oracle::walkValueAfter(w, i, t), 0.0)
                << "case " << c << " step " << i << " threshold " << t;
            if (t > 0.0) {
                const double below = std::nextafter(t, 0.0);
                EXPECT_LT(oracle::walkValueAfter(w, i, below), 0.0)
                    << "case " << c << " step " << i << " below " << t;
                expectSameIndex(below);
            }
            if (std::isfinite(t)) {
                expectSameIndex(t);
                expectSameIndex(std::nextafter(
                    t, std::numeric_limits<double>::infinity()));
            }
        }
        // Draws as categorical makes them: uniform() * total.
        const double total = oracle::categoricalTotal(w);
        for (int d = 0; d < 500; ++d)
            expectSameIndex(rng.uniform() * total);
        if (HasFailure())
            return;
    }
}

// Switches with the same expert count share one popularity tilt per
// drift phase, and a switch's top-k tables are rebuilt only when its
// weights change: once per switch and phase, even in a graph that
// mixes expert counts.
TEST(Trace, TopKTablesRebuildOncePerSwitchAndPhase)
{
    const DynGraph dg = mixedMoeModel(4);
    ASSERT_EQ(dg.switches().size(), 2u);
    constexpr int kPhases = 3;
    for (bool drift : {false, true}) {
        TraceConfig cfg = stationary(4);
        cfg.driftStrength = drift ? 0.3 : 0.0;
        cfg.driftPeriod = 5;
        TraceGenerator gen(dg, cfg, 17);
        for (int b = 0; b < kPhases * cfg.driftPeriod; ++b)
            (void)gen.next();
        // Without drift the one tilt is drawn once, so each switch
        // builds its tables once.
        EXPECT_EQ(gen.topKTableBuilds(), 2u * (drift ? kPhases : 1))
            << (drift ? "drift" : "stationary");
    }
}

TEST(Trace, DeterministicForSameSeed)
{
    const DynGraph dg = earlyExitModel(64, 0.3, 0.3);
    TraceGenerator a(dg, stationary(64), 99);
    TraceGenerator b(dg, stationary(64), 99);
    for (int i = 0; i < 20; ++i) {
        const BatchRouting ra = a.next();
        const BatchRouting rb = b.next();
        for (const auto &[sw, oc] : ra.outcomes) {
            const auto &ocb = rb.outcomes.at(sw);
            EXPECT_EQ(oc.branchCounts, ocb.branchCounts);
            EXPECT_EQ(oc.activeAfter, ocb.activeAfter);
        }
    }
}

TEST(Trace, EarlyExitConservation)
{
    const DynGraph dg = earlyExitModel(128, 0.3, 0.3);
    TraceGenerator gen(dg, stationary(128), 1);
    for (int i = 0; i < 50; ++i) {
        const BatchRouting r = gen.next();
        ASSERT_EQ(r.outcomes.size(), 2u);
        std::int64_t prevAfter = 128;
        for (const SwitchInfo &sw : dg.switches()) {
            const SwitchOutcome &oc = r.outcomes.at(sw.switchOp);
            // Exits + continues = arrivals; arrivals = upstream after.
            EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1],
                      oc.activeBefore);
            EXPECT_EQ(oc.activeBefore, prevAfter);
            EXPECT_EQ(oc.activeAfter, oc.branchCounts[1]);
            prevAfter = oc.activeAfter;
        }
    }
}

TEST(Trace, EarlyExitMarginalCalibrated)
{
    const DynGraph dg = earlyExitModel(128, 0.25, 0.25);
    TraceGenerator gen(dg, stationary(128), 5);
    double exits0 = 0, exits1 = 0;
    const int batches = 400;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        exits0 += static_cast<double>(
            r.outcomes.at(dg.switches()[0].switchOp).branchCounts[0]);
        exits1 += static_cast<double>(
            r.outcomes.at(dg.switches()[1].switchOp).branchCounts[0]);
    }
    // Both gates remove ~25% of the *original* batch.
    EXPECT_NEAR(exits0 / batches / 128.0, 0.25, 0.02);
    EXPECT_NEAR(exits1 / batches / 128.0, 0.25, 0.02);
}

TEST(Trace, LayerSkipConservesBatch)
{
    const DynGraph dg = skipModel(64, 0.4);
    TraceGenerator gen(dg, stationary(64), 2);
    double skipped = 0;
    const int batches = 300;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcomes.at(dg.switches()[0].switchOp);
        EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1], 64);
        EXPECT_EQ(oc.activeAfter, 64);
        skipped += static_cast<double>(oc.branchCounts[0]);
    }
    EXPECT_NEAR(skipped / batches / 64.0, 0.4, 0.03);
}

TEST(Trace, MoETopKCountsSumToKTimesBatch)
{
    const DynGraph dg = moeModel(128, 8, 2);
    TraceGenerator gen(dg, stationary(128), 3);
    for (int i = 0; i < 20; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcomes.at(dg.switches()[0].switchOp);
        std::int64_t total = 0;
        for (std::int64_t c : oc.branchCounts)
            total += c;
        EXPECT_EQ(total, 2 * 128);
        EXPECT_EQ(oc.activeAfter, 128);
    }
}

TEST(Trace, MoEBiasSkewsExpertLoad)
{
    const DynGraph dg =
        moeModel(128, 4, 1, {8.0, 1.0, 1.0, 1.0});
    TraceGenerator gen(dg, stationary(128), 4);
    std::vector<double> load(4, 0.0);
    for (int i = 0; i < 200; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcomes.at(dg.switches()[0].switchOp);
        for (int e = 0; e < 4; ++e)
            load[static_cast<std::size_t>(e)] +=
                static_cast<double>(oc.branchCounts[e]);
    }
    EXPECT_GT(load[0], 3.0 * load[1]);
}

TEST(Trace, ChannelBlocksEverySampleKeepsAtLeastOne)
{
    Graph g("fbs");
    OpId in = g.addInput("in", LoopDims::conv(32, 64, 64, 14, 14, 1, 1));
    OpId merge = addChannelPrunedConv(
        g, "cp", in, LoopDims::conv(32, 64, 64, 14, 14, 3, 3), 1, 8,
        0.4, 0);
    g.addOutput("out", merge);
    const DynGraph dg = parseModel(g);

    TraceGenerator gen(dg, stationary(32), 6);
    double totalBlocks = 0;
    const int batches = 200;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcomes.at(dg.switches()[0].switchOp);
        std::int64_t sum = 0;
        for (std::int64_t c : oc.branchCounts) {
            EXPECT_LE(c, 32);
            sum += c;
        }
        EXPECT_GE(sum, 32);      // at least one block per sample
        EXPECT_LE(sum, 32 * 8);  // at most all blocks
        totalBlocks += static_cast<double>(sum);
        // Zipf popularity: first block must dominate the last.
        EXPECT_GE(oc.branchCounts[0], oc.branchCounts[7]);
    }
    // Mean keep fraction near the configured 0.4.
    EXPECT_NEAR(totalBlocks / batches / 32.0 / 8.0, 0.4, 0.06);
}

TEST(Trace, PatchSelectRowsConserved)
{
    const std::int64_t batch = 16, fold = 64;
    Graph g("dps");
    OpId in =
        g.addInput("in", LoopDims::matmul(batch * fold, 192, 192));
    OpId emb = g.addMatMul("embed", in, 192, 192);
    OpId sw = addPatchSelect(g, "sel", emb, 0.3, 0);
    OpId body = buildBranch(g, sw, 0, [](Graph &gg, OpId s) {
        return gg.addMatMul("blk", s, 192, 192);
    });
    g.addUnfoldMerge("agg", {body}, LoopDims::matmul(batch, 192, 192));
    const DynGraph dg = parseModel(g);

    TraceConfig cfg = stationary(batch);
    TraceGenerator gen(dg, cfg, 8);
    double kept = 0;
    const int batches = 300;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcomes.at(dg.switches()[0].switchOp);
        EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1],
                  batch * fold);
        EXPECT_GE(oc.branchCounts[0], batch); // >= 1 patch per image
        kept += static_cast<double>(oc.branchCounts[0]);
    }
    EXPECT_NEAR(kept / batches / (batch * fold), 0.3, 0.05);
}

TEST(Trace, DynValueMatchesOutcomes)
{
    const DynGraph dg = earlyExitModel(64, 0.3, 0.2);
    TraceGenerator gen(dg, stationary(64), 10);
    const BatchRouting r = gen.next();
    for (const OpNode &n : dg.graph().nodes()) {
        if (n.name == "l1") {
            const auto &oc =
                r.outcomes.at(dg.info(n.id).ownerSwitch);
            EXPECT_EQ(r.dynValue(dg, n.id), oc.branchCounts[1]);
        }
        if (n.name == "l0") {
            EXPECT_EQ(r.dynValue(dg, n.id), 64);
        }
    }
}

TEST(Trace, DifficultyCorrelationAcrossGates)
{
    // With two gates at the same marginal, survivors of gate 0 are
    // harder, so gate 1 exits (as a fraction of its arrivals) should
    // be *lower* than an uncorrelated generator would produce when
    // difficulty noise is small.
    TraceConfig cfg = stationary(256);
    cfg.gateNoise = 0.01;
    const DynGraph dg = earlyExitModel(256, 0.3, 0.1);
    TraceGenerator gen(dg, cfg, 11);
    double arrivals = 0, exits = 0;
    for (int i = 0; i < 200; ++i) {
        const BatchRouting r = gen.next();
        const auto &oc1 = r.outcomes.at(dg.switches()[1].switchOp);
        arrivals += static_cast<double>(oc1.activeBefore);
        exits += static_cast<double>(oc1.branchCounts[0]);
    }
    // Marginal w.r.t. original batch is 0.1; relative to arrivals
    // (~0.7 of batch) it is ~0.143.
    EXPECT_NEAR(exits / arrivals, 0.1 / 0.7, 0.03);
}

TEST(Trace, DriftChangesPhaseMarginals)
{
    TraceConfig cfg;
    cfg.batchSize = 128;
    cfg.driftStrength = 1.0;
    cfg.driftPeriod = 50;
    const DynGraph dg = skipModel(128, 0.4);
    TraceGenerator gen(dg, cfg, 12);

    auto phaseMean = [&](int batches) {
        double sum = 0;
        for (int i = 0; i < batches; ++i) {
            const BatchRouting r = gen.next();
            sum += static_cast<double>(
                r.outcomes.at(dg.switches()[0].switchOp)
                    .branchCounts[0]);
        }
        return sum / batches;
    };
    std::vector<double> means;
    for (int p = 0; p < 6; ++p)
        means.push_back(phaseMean(50));
    double lo = means[0], hi = means[0];
    for (double m : means) {
        lo = std::min(lo, m);
        hi = std::max(hi, m);
    }
    // Phases differ noticeably under full drift.
    EXPECT_GT(hi - lo, 3.0);
}

TEST(Trace, ProfileExpectationsDoNotDisturbMainStream)
{
    const DynGraph dg = earlyExitModel(64, 0.3, 0.2);
    TraceGenerator a(dg, stationary(64), 21);
    TraceGenerator b(dg, stationary(64), 21);
    (void)a.profileExpectations(50);
    const BatchRouting ra = a.next();
    const BatchRouting rb = b.next();
    for (const auto &[sw, oc] : ra.outcomes)
        EXPECT_EQ(oc.branchCounts, rb.outcomes.at(sw).branchCounts);
}

TEST(Trace, ProfileExpectationsMatchLongRunMean)
{
    const DynGraph dg = skipModel(128, 0.35);
    TraceGenerator gen(dg, stationary(128), 22);
    const auto exp = gen.profileExpectations(500);
    // Branch-1 (block) ops should see ~0.65 * 128 samples.
    for (const OpNode &n : dg.graph().nodes()) {
        if (n.name == "b0.conv") {
            ASSERT_TRUE(exp.count(n.id));
            EXPECT_NEAR(exp.at(n.id), 0.65 * 128.0, 4.0);
        }
    }
}

} // namespace
