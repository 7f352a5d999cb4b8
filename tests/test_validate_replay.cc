/**
 * @file
 * Tests for the schedule validator and the routing-trace
 * record/replay path (save -> load round trip, replayed System runs
 * matching generator-driven runs on identical data, malformed-input
 * rejection).
 */

#include <gtest/gtest.h>
#include <memory>

#include <sstream>

#include "baselines/designs.hh"
#include "core/scheduler.hh"
#include "core/validate.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "models/random.hh"
#include "trace/replay.hh"

namespace {

using namespace adyna;
using namespace adyna::core;

arch::HwConfig
hw()
{
    return arch::HwConfig{};
}

// ----------------------------------------------------------- validate

TEST(ValidateSchedule, AcceptsSchedulerOutput)
{
    for (const auto &name : models::workloadNames()) {
        const auto bundle = models::buildByName(name, 64);
        const auto dg = graph::parseModel(bundle.graph);
        costmodel::Mapper mapper(hw().tech);
        Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
        const Schedule s =
            sched.build({}, sched.initialKernelValues(), nullptr);
        const auto issues = validateSchedule(s, dg, hw());
        EXPECT_TRUE(issues.empty())
            << name << ":\n" << issuesToString(issues);
    }
}

TEST(ValidateSchedule, AcceptsRandomModels)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        models::RandomModelParams params;
        params.batch = 16;
        const auto bundle = models::buildRandomDynNN(params, seed);
        const auto dg = graph::parseModel(bundle.graph);
        costmodel::Mapper mapper(hw().tech);
        Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
        const Schedule s =
            sched.build({}, sched.initialKernelValues(), nullptr);
        const auto issues = validateSchedule(s, dg, hw());
        EXPECT_TRUE(issues.empty())
            << "seed " << seed << ":\n" << issuesToString(issues);
    }
}

TEST(ValidateSchedule, FlagsCorruptedSchedules)
{
    const auto bundle = models::buildSkipNet(32);
    const auto dg = graph::parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    Schedule s = sched.build({}, sched.initialKernelValues(), nullptr);

    // Drop one stage: coverage violation.
    Schedule missing = s;
    missing.mutableSegment(0).stages.pop_back();
    EXPECT_FALSE(validateSchedule(missing, dg, hw()).empty());

    // Out-of-range tile id.
    Schedule badTile = s;
    badTile.mutableSegment(0).stages[0].tiles[0] =
        static_cast<TileId>(hw().tiles() + 5);
    EXPECT_FALSE(validateSchedule(badTile, dg, hw()).empty());

    // Remove the worst-case kernel from one dynamic stage.
    Schedule badStore = s;
    for (auto &st : badStore.mutableSegment(0).stages) {
        if (!dg.isDynamic(st.op))
            continue;
        auto &slot = st.stores.begin()->second;
        if (slot->size() > 1) {
            kernels::KernelStore copy = *slot;
            copy.remove(copy.values().back());
            slot = std::make_shared<const kernels::KernelStore>(
                std::move(copy));
            break;
        }
    }
    EXPECT_FALSE(validateSchedule(badStore, dg, hw()).empty());

    // Swap two stages: topological-order violation.
    Schedule swapped = s;
    auto &swapStages = swapped.mutableSegment(0).stages;
    std::swap(swapStages[0], swapStages[2]);
    EXPECT_FALSE(validateSchedule(swapped, dg, hw()).empty());

    const auto issues = validateSchedule(swapped, dg, hw());
    EXPECT_NE(issuesToString(issues).find("topological"),
              std::string::npos);
}

// -------------------------------------------------------------- replay

TEST(Replay, SaveLoadRoundTrip)
{
    const auto bundle = models::buildTutelMoe(16);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 5);
    const auto batches = trace::captureTrace(gen, 7);

    std::stringstream ss;
    trace::saveTrace(ss, batches);
    const auto loaded = trace::loadTrace(ss);
    ASSERT_EQ(loaded.size(), batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        ASSERT_EQ(loaded[b].outcomes.size(),
                  batches[b].outcomes.size());
        for (const auto &[sw, oc] : batches[b].outcomes) {
            const auto &lo = loaded[b].outcomes.at(sw);
            EXPECT_EQ(lo.branchCounts, oc.branchCounts);
            EXPECT_EQ(lo.activeBefore, oc.activeBefore);
            EXPECT_EQ(lo.activeAfter, oc.activeAfter);
        }
    }
}

TEST(Replay, RejectsMalformedInput)
{
    {
        std::stringstream ss("not-a-trace v1 3\n");
        EXPECT_EXIT((void)trace::loadTrace(ss),
                    ::testing::ExitedWithCode(1), "adyna-trace");
    }
    {
        std::stringstream ss("adyna-trace v1 2\nbatch 0\n");
        EXPECT_EXIT((void)trace::loadTrace(ss),
                    ::testing::ExitedWithCode(1), "declares 2");
    }
    {
        std::stringstream ss(
            "adyna-trace v1 1\nswitch 3 before 4 after 4 counts 1\n");
        EXPECT_EXIT((void)trace::loadTrace(ss),
                    ::testing::ExitedWithCode(1),
                    "before any batch");
    }
}

TEST(Replay, SystemRejectsZeroBatches)
{
    const auto bundle = models::buildSkipNet(16);
    const auto dg = graph::parseModel(bundle.graph);
    EXPECT_EXIT((void)baselines::makeSystem(
                    dg, bundle.traceConfig, hw(),
                    baselines::Design::AdynaStatic, 0, 1),
                ::testing::ExitedWithCode(1), "numBatches must be > 0");
}

TEST(Replay, SystemRejectsTooShortTrace)
{
    const auto bundle = models::buildSkipNet(16);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 3);
    auto captured = trace::captureTrace(gen, 4);
    auto sys = baselines::makeSystem(dg, bundle.traceConfig, hw(),
                                     baselines::Design::AdynaStatic,
                                     10, 3);
    EXPECT_EXIT(sys.setReplay(std::move(captured)),
                ::testing::ExitedWithCode(1),
                "replay trace holds 4 batches but the run needs 10");
}

TEST(Replay, SystemReplayMatchesGeneratorOnSameData)
{
    const auto bundle = models::buildSkipNet(32);
    const auto dg = graph::parseModel(bundle.graph);
    const int batches = 30;

    // Generator-driven run.
    auto genSys =
        baselines::makeSystem(dg, bundle.traceConfig, hw(),
                              baselines::Design::AdynaStatic, batches,
                              11);
    const auto genRep = genSys.run();

    // Capture exactly the routing stream that run consumed: the main
    // stream (seed) plus nothing else -- rebuild it.
    trace::TraceGenerator gen(dg, bundle.traceConfig, 11);
    auto captured = trace::captureTrace(gen, batches);

    auto repSys =
        baselines::makeSystem(dg, bundle.traceConfig, hw(),
                              baselines::Design::AdynaStatic, batches,
                              11);
    repSys.setReplay(std::move(captured));
    const auto repRep = repSys.run();

    // Identical routing data with the static design (the offline
    // profile differs: it uses the replay prefix) still yields the
    // same batch count and the same order of magnitude; with equal
    // profiles the runtimes would match exactly, so just check the
    // engine consumed the replayed stream.
    EXPECT_EQ(repRep.batchEnds.size(),
              static_cast<std::size_t>(batches));
    EXPECT_GT(repRep.cycles, 0u);
    EXPECT_NEAR(repRep.timeMs, genRep.timeMs, 0.5 * genRep.timeMs);
}

TEST(Replay, FileRoundTrip)
{
    const auto bundle = models::buildSkipNet(16);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 3);
    const auto batches = trace::captureTrace(gen, 4);
    const std::string path = "/tmp/adyna_trace_test.txt";
    trace::saveTraceFile(path, batches);
    const auto loaded = trace::loadTraceFile(path);
    EXPECT_EQ(loaded.size(), 4u);
}

} // namespace
