/**
 * @file
 * Fuzz tests: randomly generated DynNNs pushed through the whole
 * stack -- parse, trace generation, scheduling, and simulation on
 * every design point -- asserting structural invariants and sane
 * metrics rather than specific numbers. Each seed is a distinct
 * model topology.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/designs.hh"
#include "common/rng.hh"
#include "core/report_io.hh"
#include "fault/fault.hh"
#include "graph/parser.hh"
#include "models/random.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::graph;
using namespace adyna::models;

class RandomModels : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    ModelBundle
    bundle() const
    {
        RandomModelParams params;
        params.batch = 16;
        return buildRandomDynNN(params, GetParam());
    }
};

TEST_P(RandomModels, BuildsValidatesAndParses)
{
    const ModelBundle b = bundle();
    b.graph.validate();
    const DynGraph dg = parseModel(b.graph);
    EXPECT_GT(dg.graph().size(), 3u);
    // Every switch has the declared number of branch slots.
    for (const SwitchInfo &sw : dg.switches()) {
        const auto &node = dg.graph().node(sw.switchOp);
        EXPECT_EQ(sw.numBranches(), node.policy.numBranches);
    }
    // Dynamic ops always know their controlling switch.
    for (OpId op : dg.dynamicOps()) {
        EXPECT_NE(dg.info(op).ownerSwitch, kInvalidOp);
        EXPECT_GT(dg.maxDyn(op), 0);
    }
}

TEST_P(RandomModels, TraceValuesStayInBounds)
{
    const ModelBundle b = bundle();
    const DynGraph dg = parseModel(b.graph);
    trace::TraceGenerator gen(dg, b.traceConfig, GetParam() * 31 + 7);
    for (int i = 0; i < 12; ++i) {
        const auto r = gen.next();
        for (OpId op : dg.dynamicOps()) {
            const auto v = r.dynValue(dg, op);
            EXPECT_GE(v, 0) << dg.graph().node(op).name;
            EXPECT_LE(v, dg.maxDyn(op)) << dg.graph().node(op).name;
        }
    }
}

TEST_P(RandomModels, SimulatesOnEveryDesign)
{
    const ModelBundle b = bundle();
    const DynGraph dg = parseModel(b.graph);
    const arch::HwConfig hw;
    double fullKernelMs = 0.0;
    for (auto design : baselines::allDesigns()) {
        auto sys = baselines::makeSystem(dg, b.traceConfig, hw, design,
                                         /*batches=*/12,
                                         /*seed=*/GetParam());
        const auto rep = sys.run();
        EXPECT_GT(rep.cycles, 0u) << rep.design;
        EXPECT_GT(rep.peUtilization, 0.0) << rep.design;
        EXPECT_LE(rep.peUtilization, 1.0) << rep.design;
        EXPECT_GE(rep.issuedMacs, rep.usefulMacs) << rep.design;
        EXPECT_EQ(rep.batchEnds.size(), 12u) << rep.design;
        if (design == baselines::Design::FullKernel)
            fullKernelMs = rep.timeMs;
    }
    EXPECT_GT(fullKernelMs, 0.0);
}

TEST_P(RandomModels, DeterministicInSeed)
{
    RandomModelParams params;
    params.batch = 16;
    const ModelBundle a = buildRandomDynNN(params, GetParam());
    const ModelBundle c = buildRandomDynNN(params, GetParam());
    ASSERT_EQ(a.graph.size(), c.graph.size());
    for (std::size_t i = 0; i < a.graph.size(); ++i) {
        const auto &na = a.graph.node(static_cast<OpId>(i));
        const auto &nc = c.graph.node(static_cast<OpId>(i));
        EXPECT_EQ(na.name, nc.name);
        EXPECT_EQ(na.dims, nc.dims);
        EXPECT_EQ(na.inputs, nc.inputs);
    }
    // Different seeds produce different topologies (almost surely).
    const ModelBundle d = buildRandomDynNN(params, GetParam() + 1000);
    EXPECT_TRUE(d.graph.size() != a.graph.size() ||
                d.graph.node(1).dims != a.graph.node(1).dims);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModels,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------- fault fuzz

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FaultFuzz, ParserSurvivesGarbage)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
    for (int i = 0; i < 200; ++i) {
        const int len = static_cast<int>(rng.uniformInt(0, 64));
        std::string text;
        for (int c = 0; c < len; ++c)
            text.push_back(
                static_cast<char>(rng.uniformInt(1, 127)));
        fault::FaultPlan plan;
        std::string err;
        // Must never crash; a rejected parse must say why.
        if (!fault::parseFaultPlan(text, plan, &err)) {
            EXPECT_FALSE(err.empty()) << text;
        }
    }
}

TEST_P(FaultFuzz, ParserSurvivesMutatedValidPlans)
{
    fault::RandomFaultConfig cfg;
    cfg.tileFails = 2;
    cfg.linkDowns = 2;
    cfg.linkDegrades = 2;
    cfg.probeDropWindows = 1;
    cfg.storeFitWindows = 1;
    cfg.chipFails = 1;
    cfg.chipSlows = 1;
    cfg.linkFlakies = 1;
    cfg.payloadCorrupts = 1;
    const fault::FaultPlan seedPlan =
        fault::randomFaultPlan(cfg, GetParam());
    const std::string valid = seedPlan.str();

    // The untouched text must round-trip exactly.
    fault::FaultPlan parsed;
    ASSERT_TRUE(fault::parseFaultPlan(valid, parsed));
    EXPECT_EQ(parsed, seedPlan);

    Rng rng(GetParam() * 31 + 7);
    for (int i = 0; i < 200; ++i) {
        std::string text = valid;
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int e = 0; e < edits && !text.empty(); ++e) {
            const auto pos = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      text.size() - 1)));
            switch (rng.uniformInt(0, 2)) {
            case 0:
                text[pos] =
                    static_cast<char>(rng.uniformInt(32, 126));
                break;
            case 1:
                text.erase(pos, 1);
                break;
            default:
                text.insert(pos, 1,
                            static_cast<char>(
                                rng.uniformInt(32, 126)));
            }
        }
        fault::FaultPlan plan;
        // Mutations may stay valid or become garbage; either way the
        // parser must not crash, and accepted plans must round-trip
        // through their canonical text.
        if (fault::parseFaultPlan(text, plan)) {
            fault::FaultPlan again;
            ASSERT_TRUE(fault::parseFaultPlan(plan.str(), again))
                << text;
            EXPECT_EQ(plan, again) << text;
        }
    }
}

TEST_P(FaultFuzz, RandomTimelineRunsComplete)
{
    // A random model under a random fault timeline: the adaptive
    // design fails over, the run finishes, and the metrics stay sane.
    RandomModelParams params;
    params.batch = 16;
    const ModelBundle b = buildRandomDynNN(params, GetParam());
    const DynGraph dg = parseModel(b.graph);
    const arch::HwConfig hw;

    fault::RandomFaultConfig fcfg;
    fcfg.horizon = 40'000'000;
    fcfg.tileFails = static_cast<int>(GetParam() % 3) + 1;
    fcfg.linkDowns = 1;
    fcfg.linkDegrades = 1;
    fcfg.probeDropWindows = 1;
    fcfg.gridRows = hw.gridRows;
    fcfg.gridCols = hw.gridCols;
    const fault::FaultPlan plan =
        fault::randomFaultPlan(fcfg, GetParam() * 131 + 5);

    auto sys = baselines::makeSystem(dg, b.traceConfig, hw,
                                     baselines::Design::Adyna,
                                     /*batches=*/12,
                                     /*seed=*/GetParam());
    sys.setFaultPlan(plan, GetParam());
    const auto rep = sys.run();
    EXPECT_GT(rep.cycles, 0u);
    EXPECT_EQ(rep.batchEnds.size(), 12u);
    EXPECT_LE(rep.peUtilization, 1.0);
    EXPECT_GE(rep.issuedMacs, rep.usefulMacs);
    EXPECT_GE(rep.fault.tileFailEvents + rep.fault.linkDownEvents +
                  rep.fault.linkDegradeEvents +
                  rep.fault.probeDropWindows,
              0u);
}

TEST_P(FaultFuzz, EmptyPlanReportsAreByteIdentical)
{
    RandomModelParams params;
    params.batch = 16;
    const ModelBundle b = buildRandomDynNN(params, GetParam());
    const DynGraph dg = parseModel(b.graph);
    const arch::HwConfig hw;

    auto plainSys = baselines::makeSystem(dg, b.traceConfig, hw,
                                          baselines::Design::Adyna,
                                          /*batches=*/12,
                                          /*seed=*/GetParam());
    const auto plain = plainSys.run();

    auto faultSys = baselines::makeSystem(dg, b.traceConfig, hw,
                                          baselines::Design::Adyna,
                                          /*batches=*/12,
                                          /*seed=*/GetParam());
    faultSys.setFaultPlan(fault::FaultPlan{}, GetParam() + 17);
    const auto empty = faultSys.run();

    EXPECT_EQ(core::toJson(plain, /*include_batches=*/true),
              core::toJson(empty, /*include_batches=*/true));
    EXPECT_EQ(core::toCsvRow(plain), core::toCsvRow(empty));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
