/**
 * @file
 * Behaviour-preservation tests for the perf optimizations: the
 * engine's cached, index-based segment planner must match the DFS
 * reference planner (plan_oracle.hh); store-cache-served schedules
 * must match compile-from-scratch ones; the exec-cost memo must stay
 * exact across a delta re-schedule; and sharing a mapper or a store
 * cache across runs must leave every run report byte-identical, on
 * every workload and on the non-default execution policies
 * (worst-case execution, pipelining off, exact kernels).
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "arch/profiler.hh"
#include "baselines/designs.hh"
#include "core/engine.hh"
#include "core/report_io.hh"
#include "core/sampling.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "plan_oracle.hh"

namespace {

using namespace adyna;
using baselines::Design;

/** One workload's graph and trace config at batch size 64. */
struct Workload
{
    graph::DynGraph dg;
    trace::TraceConfig tc;
};

Workload
loadWorkload(const std::string &name)
{
    const auto bundle = models::buildByName(name, 64);
    Workload w{graph::parseModel(bundle.graph), bundle.traceConfig};
    w.tc.batchSize = 64;
    return w;
}

/** Serialized report (with per-batch series) for one run. The cache
 * counters are not serialized, so this captures exactly the
 * simulation-visible outputs. @p shared / @p stores, when non-null,
 * share mapper-memo / compiled-store state across runs; otherwise
 * the run uses its own mapper and store cache. */
std::string
runReport(const std::string &workload, Design design, int batches,
          costmodel::Mapper *shared = nullptr,
          kernels::KernelStoreCache *stores = nullptr)
{
    const arch::HwConfig hw;
    const Workload w = loadWorkload(workload);
    core::System sys(w.dg, w.tc, hw, baselines::schedulerConfig(design),
                     baselines::execPolicy(design),
                     baselines::runOptions(design, batches, 1),
                     baselines::designName(design));
    if (shared)
        sys.setSharedMapper(shared);
    if (stores)
        sys.setSharedStoreCache(stores);
    return core::toJson(sys.run(), /*include_batches=*/true);
}

/** @p n trace batches of @p w from @p seed. */
std::vector<trace::BatchRouting>
traceBatches(const Workload &w, std::uint64_t seed, int n)
{
    trace::TraceGenerator gen(w.dg, w.tc, seed);
    std::vector<trace::BatchRouting> out;
    for (int b = 0; b < n; ++b)
        out.push_back(gen.next());
    return out;
}

/** Scheduler inputs: per-op expectations, kernel values, and the
 * profile a periodic reconfiguration builds against. */
struct Inputs
{
    std::map<OpId, double> expectations;
    std::map<OpId, std::vector<std::int64_t>> kernelValues;
    arch::Profiler profiler;
};

/** Profile one period of @p schedule on a fresh chip through
 * @p engine, then refresh @p in the way System::run does at a
 * reconfiguration boundary. */
void
profileInto(const Workload &w, const arch::HwConfig &hw,
            core::Engine &engine, const core::Schedule &schedule,
            Inputs &in)
{
    arch::Chip chip(hw);
    (void)engine.runPeriod(chip, schedule, traceBatches(w, 3, 8),
                           &in.profiler, 0);
    core::refreshScheduleInputs(in.profiler,
                                !engine.policy().exactKernels,
                                in.expectations, in.kernelValues);
}

/** Every segment's plan from the engine's cached planner must equal
 * the DFS reference planner's, field by field. */
void
expectPlansMatchOracle(core::Engine &engine, const Workload &w,
                       const arch::HwConfig &hw,
                       const core::Schedule &schedule,
                       const std::string &what)
{
    const auto &plans = engine.plans(schedule);
    ASSERT_EQ(plans.size(), schedule.segments.size()) << what;
    for (std::size_t s = 0; s < plans.size(); ++s) {
        const auto ref = oracle::planSegment(
            w.dg, hw.tech, engine.policy().pipelining, schedule, s);
        ASSERT_EQ(plans[s].size(), ref.size()) << what;
        for (std::size_t si = 0; si < ref.size(); ++si) {
            const auto &got = plans[s][si];
            const auto &want = ref[si];
            const std::string where = what + " segment " +
                                      std::to_string(s) + " stage " +
                                      std::to_string(si);
            EXPECT_EQ(got.writesOut, want.writesOut) << where;
            EXPECT_EQ(got.perRowWork, want.perRowWork) << where;
            ASSERT_EQ(got.edges.size(), want.edges.size()) << where;
            for (std::size_t e = 0; e < want.edges.size(); ++e) {
                EXPECT_EQ(got.edges[e].producerStage,
                          want.edges[e].producerStage)
                    << where << " edge " << e;
                EXPECT_EQ(got.edges[e].producerOp,
                          want.edges[e].producerOp)
                    << where << " edge " << e;
                EXPECT_EQ(got.edges[e].perRowBytes,
                          want.edges[e].perRowBytes)
                    << where << " edge " << e;
                EXPECT_EQ(got.edges[e].crossesRouting,
                          want.edges[e].crossesRouting)
                    << where << " edge " << e;
            }
        }
    }
}

/** The first dynamic stage op of @p schedule, or kInvalidOp. */
OpId
firstDynamicStageOp(const graph::DynGraph &dg,
                    const core::Schedule &schedule)
{
    for (const auto &seg : schedule.segments)
        for (const core::StageAssign &st : seg->stages)
            if (dg.isDynamic(st.op))
                return st.op;
    return kInvalidOp;
}

/** Stage assignment of @p op in @p schedule (asserts presence). */
const core::StageAssign &
stageOf(const core::Schedule &schedule, OpId op)
{
    for (const auto &seg : schedule.segments)
        for (const core::StageAssign &st : seg->stages)
            if (st.op == op)
                return st;
    ADD_FAILURE() << "op " << op << " not scheduled";
    return schedule.segments.front()->stages.front();
}

} // namespace

/** The cached planner against the DFS reference on all five
 * workloads and every policy branch the planner has (Adyna; M-tile's
 * worst-case shapes; M-tenant with pipelining off; full-kernel),
 * over an initial build, a profiled rebuild, a one-op buildDelta,
 * and a re-query of the first schedule (the cache is keyed by
 * schedule content, so the re-query must not return another
 * schedule's plans). */
TEST(Equivalence, PlanCacheMatchesLegacyPlannerAllWorkloads)
{
    const arch::HwConfig hw;
    for (const auto &name : models::workloadNames()) {
        const Workload w = loadWorkload(name);
        for (Design d : {Design::Adyna, Design::MTile, Design::MTenant,
                         Design::FullKernel}) {
            const std::string what =
                name + "/" + baselines::designName(d);
            const auto scfg = baselines::schedulerConfig(d);
            costmodel::Mapper mapper(hw.tech);
            kernels::KernelStoreCache stores;
            core::Scheduler sched(w.dg, hw, mapper, scfg);
            sched.setStoreCache(&stores);
            core::Engine engine(w.dg, hw, mapper,
                                baselines::execPolicy(d));

            Inputs in;
            in.kernelValues = sched.initialKernelValues();
            const core::Schedule initial =
                sched.build(in.expectations, in.kernelValues, nullptr);
            expectPlansMatchOracle(engine, w, hw, initial,
                                   what + " initial");

            profileInto(w, hw, engine, initial, in);
            const arch::Profiler *prof =
                scfg.worstCase ? nullptr : &in.profiler;
            const core::Schedule profiled =
                sched.build(in.expectations, in.kernelValues, prof);
            expectPlansMatchOracle(engine, w, hw, profiled,
                                   what + " profiled");

            const OpId op = firstDynamicStageOp(w.dg, profiled);
            ASSERT_NE(op, kInvalidOp) << what;
            in.expectations[op] =
                0.5 * static_cast<double>(w.dg.maxDyn(op));
            const core::Schedule delta = sched.buildDelta(
                profiled, in.expectations, in.kernelValues, prof, {op});
            expectPlansMatchOracle(engine, w, hw, delta,
                                   what + " delta");

            expectPlansMatchOracle(engine, w, hw, initial,
                                   what + " initial re-query");
        }
    }
}

/** Shared mapper alone: the memo only caches deterministic search
 * results, so sharing across runs must not change any report. */
TEST(Equivalence, SharedMapperMatchesPrivateMapper)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    for (const auto &name : models::workloadNames()) {
        const auto priv = runReport(name, Design::Adyna, 20);
        const auto shr = runReport(name, Design::Adyna, 20, &shared);
        EXPECT_EQ(priv, shr) << "workload " << name;
    }
    // The second run of each workload hits the warm memo.
    EXPECT_GT(shared.hits(), 0u);
}

/** Kernel-store cache: schedules built through a cold cache (first
 * build populates it) and a warm one (every store a hit) must match
 * the compile-from-scratch path (no cache attached) down to the
 * encoded kernel images, for initial and profiled inputs on every
 * workload. */
TEST(Equivalence, StoreCacheMatchesScratchCompile)
{
    const arch::HwConfig hw;
    const auto scfg = baselines::schedulerConfig(Design::Adyna);
    kernels::KernelStoreCache stores;
    for (const auto &name : models::workloadNames()) {
        const Workload w = loadWorkload(name);
        costmodel::Mapper mapper(hw.tech);
        core::Scheduler scratch(w.dg, hw, mapper, scfg);
        scratch.setStoreCache(nullptr);
        core::Engine engine(w.dg, hw, mapper,
                            baselines::execPolicy(Design::Adyna));

        Inputs in;
        in.kernelValues = scratch.initialKernelValues();
        for (const std::string phase : {"initial", "profiled"}) {
            const bool profiled = phase == "profiled";
            const arch::Profiler *prof =
                profiled ? &in.profiler : nullptr;
            const core::Schedule want =
                scratch.build(in.expectations, in.kernelValues, prof);

            core::Scheduler cached(w.dg, hw, mapper, scfg);
            cached.setStoreCache(&stores);
            const std::string cold =
                cached.build(in.expectations, in.kernelValues, prof)
                    .fingerprint();
            const std::uint64_t misses = stores.misses();
            const std::string warm =
                cached.build(in.expectations, in.kernelValues, prof)
                    .fingerprint();
            EXPECT_EQ(stores.misses(), misses) << name << " " << phase;
            EXPECT_EQ(want.fingerprint(), cold) << name << " " << phase;
            EXPECT_EQ(want.fingerprint(), warm) << name << " " << phase;

            if (!profiled)
                profileInto(w, hw, engine, want, in);
        }
    }
    EXPECT_GT(stores.hits(), 0u);
    EXPECT_GT(stores.misses(), 0u);
}

/** The exec-cost memo across a delta re-schedule: one op's kernel
 * values change at unchanged tile counts, so its memo entries must
 * be dropped while every other op's stay warm. The warm engine's
 * result on the new schedule must equal a fresh engine's. */
TEST(Engine, ExecMemoAcrossDeltaRescheduleMatchesFreshEngine)
{
    const arch::HwConfig hw;
    const Workload w = loadWorkload("skipnet");
    const auto policy = baselines::execPolicy(Design::Adyna);
    costmodel::Mapper mapper(hw.tech);
    kernels::KernelStoreCache stores;
    core::Scheduler sched(w.dg, hw, mapper,
                          baselines::schedulerConfig(Design::Adyna));
    sched.setStoreCache(&stores);

    const std::map<OpId, double> expectations;
    const auto kernelValues = sched.initialKernelValues();
    const core::Schedule a =
        sched.build(expectations, kernelValues, nullptr);

    const auto batches = traceBatches(w, 7, 16);
    const auto freshRun = [&](const core::Schedule &s) {
        core::Engine e(w.dg, hw, mapper, policy);
        arch::Chip chip(hw);
        return e.runPeriod(chip, s, batches, nullptr, 0);
    };
    const core::PeriodResult onA = freshRun(a);

    // B: one dynamic op keeps its tile counts but compiles only its
    // smallest sampled kernel value, so larger values dispatch in
    // several passes. Take the first op whose stage costs change
    // that way, so a stale memo entry would show in the result.
    core::Schedule b;
    OpId op = kInvalidOp;
    for (const auto &seg : a.segments) {
        for (const core::StageAssign &st : seg->stages) {
            if (op != kInvalidOp || !w.dg.isDynamic(st.op))
                continue;
            auto values = kernelValues;
            values[st.op] = {values[st.op].front()};
            core::Schedule cand = sched.buildDelta(
                a, expectations, values, nullptr, {st.op});
            if (freshRun(cand).stageCycles != onA.stageCycles) {
                b = std::move(cand);
                op = st.op;
            }
        }
    }
    ASSERT_NE(op, kInvalidOp);
    const core::StageAssign &stA = stageOf(a, op);
    const core::StageAssign &stB = stageOf(b, op);
    ASSERT_EQ(stA.tiles, stB.tiles);
    ASSERT_EQ(stA.stores.size(), stB.stores.size());
    for (auto ia = stA.stores.begin(), ib = stB.stores.begin();
         ia != stA.stores.end(); ++ia, ++ib)
        ASSERT_EQ(ia->first, ib->first);

    core::Engine warm(w.dg, hw, mapper, policy);
    {
        arch::Chip chip(hw);
        (void)warm.runPeriod(chip, a, batches, nullptr, 0);
    }
    const std::uint64_t missesA = warm.execMisses();
    arch::Chip warmChip(hw);
    const core::PeriodResult got =
        warm.runPeriod(warmChip, b, batches, nullptr, 0);

    core::Engine fresh(w.dg, hw, mapper, policy);
    arch::Chip freshChip(hw);
    const core::PeriodResult want =
        fresh.runPeriod(freshChip, b, batches, nullptr, 0);

    EXPECT_EQ(got.endTime, want.endTime);
    EXPECT_EQ(got.batchEnds, want.batchEnds);
    EXPECT_EQ(got.stageCycles, want.stageCycles);
    EXPECT_EQ(warmChip.issuedMacs(), freshChip.issuedMacs());
    EXPECT_EQ(warmChip.usefulMacs(), freshChip.usefulMacs());
    EXPECT_GT(warm.execHits(), 0u);
    // The unchanged ops' entries survived the delta.
    EXPECT_LT(warm.execMisses() - missesA, fresh.execMisses());
}

/** Every layer together, re-using one mapper and one store cache
 * across runs the way the bench sweeps do, against runs with a
 * private mapper and their own store cache. */
TEST(Equivalence, CachedSweepMatchesSeedPath)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    for (const auto &name : models::workloadNames()) {
        const auto own = runReport(name, Design::Adyna, 45);
        const auto fast =
            runReport(name, Design::Adyna, 45, &shared, &stores);
        EXPECT_EQ(own, fast) << "workload " << name;
    }
}

/** Non-default policies: MTile runs worst-case shapes, MTenant turns
 * pipelining off, FullKernel generates exact kernels -- each with a
 * shared mapper and store cache against private state. */
TEST(Equivalence, BaselineDesignPoliciesMatch)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    for (Design d : {Design::MTile, Design::MTenant,
                     Design::FullKernel}) {
        const auto own = runReport("skipnet", d, 45);
        const auto fast = runReport("skipnet", d, 45, &shared, &stores);
        EXPECT_EQ(own, fast) << "design " << baselines::designName(d);
    }
}

/** Counters surface in the report and reflect real activity. */
TEST(Equivalence, CacheCountersReported)
{
    const arch::HwConfig hw;
    const auto bundle = models::buildByName("skipnet", 64);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 64;
    core::System sys(dg, tc, hw,
                     baselines::schedulerConfig(Design::Adyna),
                     baselines::execPolicy(Design::Adyna),
                     baselines::runOptions(Design::Adyna, 10, 1),
                     "Adyna");
    const auto rep = sys.run();
    EXPECT_GT(rep.mapperMisses, 0u);
    // Reconfigurations re-map the same ops, so a multi-period run
    // sees hits even with a fresh private mapper.
    EXPECT_GT(rep.mapperHits + rep.mapperMisses, rep.mapperMisses);
    // Stores compile through the cache and the exec memo is on;
    // both see activity, and a reconfiguring run re-uses stores of
    // ops whose allocation did not change.
    EXPECT_GT(rep.storeMisses, 0u);
    EXPECT_GT(rep.execHits, 0u);
    EXPECT_GT(rep.execMisses, 0u);
    // Counters stay out of the byte-stable report serialization.
    const auto json = core::toJson(rep, true);
    EXPECT_EQ(json.find("mapper_hits"), std::string::npos);
    EXPECT_EQ(json.find("store_misses"), std::string::npos);
}
