/**
 * @file
 * Zero-allocation guards for the serve hot path: a steady-state
 * Engine::runPeriod (warm plan cache + exec memo, out-param result)
 * must not touch the heap, and a warm TraceGenerator::next() may
 * allocate only the BatchRouting it returns.
 *
 * The guard counts calls to the replaceable global operator new. The
 * test skips under sanitizer builds (ADYNA_SANITIZE): sanitizer
 * runtimes interpose the allocator and allocate internally, so the
 * counter stops measuring the code under test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "arch/chip.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "trace/trace.hh"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

// All replacements are kept out of line: once g++ 12 inlines one of
// them into a caller, it sees std::free paired with a pointer from
// operator new (or std::malloc paired with operator delete) and warns
// -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace adyna;
using namespace adyna::core;
using namespace adyna::graph;

arch::HwConfig
hw()
{
    return arch::HwConfig{};
}

DynGraph
staticPipe(std::int64_t batch)
{
    Graph g("pipe");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 512, 512));
    OpId a = g.addMatMul("a", in, 512, 512);
    OpId b = g.addMatMul("b", a, 512, 512);
    OpId c = g.addMatMul("c", b, 512, 512);
    g.addOutput("out", c);
    return parseModel(g);
}

TEST(AllocGuard, SteadyStateRunPeriodAllocatesNothing)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    const DynGraph dg = staticPipe(64);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);

    Engine eng(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chip(hw());

    trace::TraceConfig tc;
    tc.batchSize = 64;
    tc.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, tc, 1);
    std::vector<trace::BatchRouting> batches;
    for (int i = 0; i < 6; ++i)
        batches.push_back(gen.next());

    // Warm-up periods size every scratch vector, plan-cache entry,
    // and memo bucket. Several are needed: the HBM gap-resource's
    // interval vector oscillates over a multi-period trim/compaction
    // cycle, so its capacity peaks only after a few periods. The
    // barrier stays monotone like the serve loop's dispatch clock.
    PeriodResult out;
    Tick barrier = 0;
    for (int i = 0; i < 6; ++i) {
        eng.runPeriod(chip, s, batches, nullptr, barrier, out);
        barrier = out.endTime;
    }

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    eng.runPeriod(chip, s, batches, nullptr, barrier, out);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state runPeriod performed " << (after - before)
        << " heap allocations";
    EXPECT_EQ(out.batchEnds.size(), batches.size());
}

TEST(AllocGuard, SteadyStateTraceNextAllocatesOnlyTheResult)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    // PABEE exits early, SkipNet skips layers, Tutel-MoE at batch 1
    // takes the per-unit top-k path, FBSNet prunes channel blocks and
    // AdaViT selects patches.
    const std::pair<const char *, std::int64_t> cases[] = {
        {"pabee", 16},  {"skipnet", 16}, {"tutel-moe", 1},
        {"fbsnet", 16}, {"adavit", 16}};
    for (const auto &[name, batch] : cases) {
        const models::ModelBundle bundle =
            models::buildByName(name, batch);
        const DynGraph dg = parseModel(bundle.graph);
        trace::TraceGenerator gen(dg, bundle.traceConfig, 3);
        for (int i = 0; i < 3; ++i)
            (void)gen.next();

        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        const trace::BatchRouting routing = gen.next();
        const std::uint64_t mid =
            g_allocs.load(std::memory_order_relaxed);
        const trace::BatchRouting copy(routing);
        const std::uint64_t after =
            g_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(mid - before, after - mid)
            << name << ": warm next() performed " << (mid - before)
            << " heap allocations; copying its result takes "
            << (after - mid);
        EXPECT_EQ(copy.outcomes.size(), routing.outcomes.size());
    }
}

TEST(AllocGuard, TraceNextAcrossPhaseChangeAllocatesOnlyTheResult)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    // A new drift phase redraws the expert tilt, so Tutel-MoE's
    // per-unit top-k tables are rebuilt inside the measured next():
    // tilts and tables reuse the capacity of the phases before.
    const models::ModelBundle bundle = models::buildByName("tutel-moe", 1);
    const DynGraph dg = parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.driftStrength = 0.3;
    tc.driftPeriod = 4;
    trace::TraceGenerator gen(dg, tc, 3);
    for (int i = 0; i < 2 * tc.driftPeriod; ++i)
        (void)gen.next();
    const std::uint64_t builds = gen.topKTableBuilds();

    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const trace::BatchRouting routing = gen.next();
    const std::uint64_t mid = g_allocs.load(std::memory_order_relaxed);
    const trace::BatchRouting copy(routing);
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_GT(gen.topKTableBuilds(), builds)
        << "the measured batch did not start a new phase";
    EXPECT_EQ(mid - before, after - mid)
        << "next() at a phase change performed " << (mid - before)
        << " heap allocations; copying its result takes "
        << (after - mid);
}

} // namespace
