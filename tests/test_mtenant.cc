/**
 * @file
 * Unit tests for the multi-tenant serving layer: TilePartitioner
 * geometry (disjoint full-grid cover, per-tenant floors, share
 * proportionality, determinism, mode behaviour), boundary-link
 * enumeration and interference degrades, the 1-tenant byte-identity
 * gate against serve::ServeRuntime, multi-tenant run determinism,
 * elastic repartitioning, and partition-local fail-over.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "arch/noc.hh"
#include "baselines/designs.hh"
#include "costmodel/mapper.hh"
#include "fault/fault.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "mtenant/partition.hh"
#include "mtenant/runtime.hh"
#include "serve/server.hh"

namespace {

using namespace adyna;
using namespace adyna::mtenant;

// ---------------------------------------------------- TilePartitioner

// Every partition mode must yield regions that cover the grid and --
// outside SharedGrid -- never overlap.
void
expectDisjointCover(const arch::HwConfig &hw,
                    const std::vector<TileRegion> &regions)
{
    std::set<TileId> seen;
    for (const TileRegion &r : regions) {
        for (TileId t : r.tiles(hw)) {
            EXPECT_TRUE(seen.insert(t).second)
                << "tile " << t << " assigned twice";
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), hw.tiles());
}

TEST(Partitioner, DisjointCoverAndFloorsAcrossShareMixes)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    TilePartitioner part(hw, pp);
    const std::vector<std::vector<double>> mixes = {
        {1.0},
        {1.0, 1.0},
        {4.0, 1.0},
        {8.0, 2.0, 1.0},
        {1.0, 1.0, 1.0, 1.0},
        {100.0, 1.0, 1.0},
    };
    for (const auto &shares : mixes) {
        const auto regions = part.partition(shares);
        ASSERT_EQ(regions.size(), shares.size());
        expectDisjointCover(hw, regions);
        for (const TileRegion &r : regions)
            EXPECT_GE(r.tileCount(), pp.minTilesPerTenant);
    }
}

TEST(Partitioner, SharesDriveRegionSizes)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const auto regions = part.partition({3.0, 1.0});
    ASSERT_EQ(regions.size(), 2u);
    // A 3:1 share split on a 144-tile grid: the heavy tenant gets
    // roughly three quarters of the tiles (guillotine rounding may
    // shift a row or column).
    EXPECT_GT(regions[0].tileCount(), regions[1].tileCount());
    EXPECT_NEAR(regions[0].tileCount(), hw.tiles() * 3 / 4,
                hw.gridRows);
}

TEST(Partitioner, DeterministicForEqualInputs)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const std::vector<double> shares = {2.0, 1.0, 1.5};
    const auto a = part.partition(shares);
    const auto b = part.partition(shares);
    EXPECT_EQ(a, b);
}

TEST(Partitioner, SingleTenantGetsFullGrid)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const auto regions = part.partition({1.0});
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].tileCount(), hw.tiles());
    EXPECT_TRUE(part.boundaryLinks(regions).empty());
}

TEST(Partitioner, EvenSplitIgnoresShares)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    pp.kind = PartitionKind::EvenSplit;
    TilePartitioner part(hw, pp);
    const auto skewed = part.partition({100.0, 1.0, 1.0});
    const auto flat = part.partition({1.0, 1.0, 1.0});
    EXPECT_EQ(skewed, flat);
    expectDisjointCover(hw, skewed);
    int lo = hw.tiles(), hi = 0;
    for (const TileRegion &r : skewed) {
        lo = std::min(lo, r.tileCount());
        hi = std::max(hi, r.tileCount());
    }
    // Near-equal sizes: no region more than one grid edge away from
    // another.
    EXPECT_LE(hi - lo, std::max(hw.gridRows, hw.gridCols));
}

TEST(Partitioner, SharedGridAliasesFullGrid)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    pp.kind = PartitionKind::SharedGrid;
    TilePartitioner part(hw, pp);
    const auto regions = part.partition({3.0, 1.0});
    ASSERT_EQ(regions.size(), 2u);
    for (const TileRegion &r : regions)
        EXPECT_EQ(r.tileCount(), hw.tiles());
    EXPECT_TRUE(part.boundaryLinks(regions).empty());
    EXPECT_TRUE(
        part.interferenceDegrades(regions, {3.0, 1.0}).empty());
}

TEST(Partitioner, BoundaryLinksCrossRegionsAndAreSorted)
{
    const arch::HwConfig hw;
    TilePartitioner part(hw, {});
    const std::vector<double> shares = {2.0, 1.0, 1.0};
    const auto regions = part.partition(shares);
    const auto links = part.boundaryLinks(regions);
    ASSERT_FALSE(links.empty());
    for (std::size_t i = 0; i < links.size(); ++i) {
        const BoundaryLink &l = links[i];
        // The link really crosses a partition boundary...
        EXPECT_NE(l.fromRegion, l.toRegion);
        EXPECT_TRUE(regions[static_cast<std::size_t>(l.fromRegion)]
                        .contains(hw, l.tile));
        const TileId nbr = arch::torusNeighbor(hw, l.tile, l.dir);
        EXPECT_TRUE(regions[static_cast<std::size_t>(l.toRegion)]
                        .contains(hw, nbr));
        // ...and the list is ascending by (tile, dir).
        if (i > 0) {
            const BoundaryLink &p = links[i - 1];
            EXPECT_TRUE(p.tile < l.tile ||
                        (p.tile == l.tile && p.dir < l.dir));
        }
    }
}

TEST(Partitioner, InterferenceDegradesBoundedAndGatedByAlpha)
{
    const arch::HwConfig hw;
    PartitionPolicy pp;
    pp.interferenceAlpha = 0.5;
    TilePartitioner part(hw, pp);
    const std::vector<double> shares = {2.0, 1.0};
    const auto regions = part.partition(shares);
    const auto degrades = part.interferenceDegrades(regions, shares);
    ASSERT_FALSE(degrades.empty());
    std::set<std::pair<TileId, int>> keys;
    for (const InterferenceDegrade &d : degrades) {
        EXPECT_GT(d.factor, 0.0);
        EXPECT_LT(d.factor, 1.0); // alpha > 0 => a real degrade
        EXPECT_TRUE(keys.insert({d.tile, d.dir}).second)
            << "duplicate (tile, dir)";
    }

    PartitionPolicy off = pp;
    off.interferenceAlpha = 0.0;
    TilePartitioner quiet(hw, off);
    EXPECT_TRUE(
        quiet.interferenceDegrades(regions, shares).empty());
}

// ------------------------------------------------------ MTenantRuntime

struct TestWorkload
{
    models::ModelBundle bundle;
    graph::DynGraph dg;
    trace::TraceConfig tc;

    explicit TestWorkload(const char *name, int maxBatch)
        : bundle(models::buildByName(name, maxBatch)),
          dg(graph::parseModel(bundle.graph)), tc(bundle.traceConfig)
    {
        tc.batchSize = maxBatch;
        tc.driftStrength = 0.0;
    }
};

serve::ServeConfig
smokeServeConfig(std::uint64_t seed, unsigned requests)
{
    serve::ServeConfig sc;
    sc.arrival.ratePerSec = 5e5;
    sc.batching.maxBatch = 8;
    sc.batching.maxWaitCycles = 20000;
    sc.slo.deadlineMs = 1.0;
    sc.drift.windowRequests = 64;
    sc.numRequests = requests;
    sc.profileBatches = 8;
    sc.seed = seed;
    return sc;
}

TEST(MTenantRuntime, SingleTenantMatchesServeRuntimeByteForByte)
{
    TestWorkload w("skipnet", 8);
    const arch::HwConfig hw;
    const auto schedCfg =
        baselines::schedulerConfig(baselines::Design::Adyna);
    const auto policy = baselines::execPolicy(baselines::Design::Adyna);
    const serve::ServeConfig sc = smokeServeConfig(7, 200);

    serve::ServeRuntime direct(w.dg, w.tc, hw, schedCfg, policy, sc,
                               "skipnet");
    const std::string want = serve::toJson(direct.run());

    MTenantConfig mc;
    serve::TenantSpec ts;
    ts.id = "solo";
    ts.serve = sc;
    mc.tenants.push_back(ts);
    MTenantRuntime rt({{&w.dg, w.tc, "skipnet"}}, hw, schedCfg,
                      policy, mc);
    const MTenantReport mr = rt.run();

    ASSERT_EQ(mr.tenants.size(), 1u);
    EXPECT_EQ(serve::toJson(mr.tenants[0].serve), want);
    EXPECT_EQ(mr.tenants[0].tiles, hw.tiles());
    EXPECT_EQ(mr.repartitions, 0);
    EXPECT_EQ(mr.tenantSwitches, 0);
}

MTenantReport
twoTenantRun(PartitionKind kind, bool elastic, std::uint64_t seed,
             const std::string &faultPlan = "")
{
    static TestWorkload wa("skipnet", 8);
    static TestWorkload wb("pabee", 8);
    const arch::HwConfig hw;

    MTenantConfig mc;
    mc.partition.kind = kind;
    mc.repartition.elastic = elastic;
    if (!faultPlan.empty())
        mc.faultPlan = fault::parseFaultPlanOrDie(faultPlan);

    serve::TenantSpec a;
    a.id = "skipnet-0";
    a.cls = serve::SloClass::LatencyCritical;
    a.serve = smokeServeConfig(seed, 150);
    mc.tenants.push_back(a);

    serve::TenantSpec b;
    b.id = "pabee-1";
    b.cls = serve::SloClass::BestEffort;
    b.serve = smokeServeConfig(seed + 1, 150);
    b.serve.arrival.ratePerSec = 2e5;
    b.serve.slo.deadlineMs = 4.0;
    mc.tenants.push_back(b);

    MTenantRuntime rt(
        {{&wa.dg, wa.tc, "skipnet"}, {&wb.dg, wb.tc, "pabee"}}, hw,
        baselines::schedulerConfig(baselines::Design::Adyna),
        baselines::execPolicy(baselines::Design::Adyna), mc);
    return rt.run();
}

TEST(MTenantRuntime, TwoTenantRunIsDeterministic)
{
    const MTenantReport a =
        twoTenantRun(PartitionKind::IsolationAware, true, 3);
    const MTenantReport b =
        twoTenantRun(PartitionKind::IsolationAware, true, 3);
    EXPECT_EQ(toJson(a), toJson(b));

    ASSERT_EQ(a.tenants.size(), 2u);
    EXPECT_EQ(a.mode, "isolation-aware");
    EXPECT_GT(a.interferenceLinks, 0);
    for (const TenantResult &tr : a.tenants) {
        EXPECT_EQ(tr.serve.requests, 150u);
        EXPECT_GT(tr.serve.p99Ms, 0.0);
        EXPECT_GT(tr.tiles, 0);
        EXPECT_LT(tr.tiles, arch::HwConfig{}.tiles());
    }
    EXPECT_GT(a.aggregateGoodputRps, 0.0);
    EXPECT_GE(a.worstP99Ms, a.tenants[0].serve.p99Ms);
    EXPECT_GE(a.worstP99Ms, a.tenants[1].serve.p99Ms);
}

TEST(MTenantRuntime, SharedGridPaysContextSwitches)
{
    const MTenantReport shared =
        twoTenantRun(PartitionKind::SharedGrid, false, 3);
    const MTenantReport iso =
        twoTenantRun(PartitionKind::IsolationAware, false, 3);
    EXPECT_EQ(shared.mode, "shared-grid");
    // Every tenant schedules over the whole grid, so alternating
    // dispatches keep re-streaming weights; pinned disjoint regions
    // never pay one (elastic repartitioning is off).
    EXPECT_GT(shared.tenantSwitches, 0);
    EXPECT_EQ(iso.tenantSwitches, 0);
    EXPECT_EQ(shared.interferenceLinks, 0);
}

TEST(MTenantRuntime, FrozenPartitionNeverRepartitions)
{
    const MTenantReport r =
        twoTenantRun(PartitionKind::EvenSplit, true, 5);
    // EvenSplit is always frozen, elastic flag or not.
    EXPECT_EQ(r.mode, "even-split");
    EXPECT_EQ(r.repartitions, 0);
}

TEST(MTenantRuntime, FaultInOneRegionRepairsOnlyStruckTenants)
{
    // Strike tile 0 (top-left corner: inside exactly one region)
    // mid-run, recover it later. Only the tenant owning that corner
    // may be rebuilt.
    const MTenantReport r = twoTenantRun(
        PartitionKind::IsolationAware, false, 11,
        "tile_fail@2000000:tile=0,duration=3000000");
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_GT(r.failoverRepairs, 0);
    const int failovers0 = r.tenants[0].serve.failovers;
    const int failovers1 = r.tenants[1].serve.failovers;
    // Tile 0 lives in exactly one rectangle, so exactly one tenant
    // sees fail-over repairs.
    EXPECT_TRUE((failovers0 > 0) != (failovers1 > 0))
        << "failovers: " << failovers0 << " / " << failovers1;
    EXPECT_EQ(r.failoverRepairs, failovers0 + failovers1);
}

// ------------------------------------------- shared serving back-end

/** A drifting PABEE workload: its dynamism distribution moves every
 * 700 requests, so a sensitive detector re-schedules. */
struct DriftingWorkload : TestWorkload
{
    DriftingWorkload() : TestWorkload("pabee", 8)
    {
        tc.driftStrength = 0.9;
        tc.driftPeriod = 700;
    }
};

/** Serve config with a sensitive drift detector over @p requests. */
serve::ServeConfig
driftServeConfig(std::uint64_t seed, unsigned requests)
{
    serve::ServeConfig sc = smokeServeConfig(seed, requests);
    sc.arrival.ratePerSec = 2e5;
    sc.slo.deadlineMs = 4.0;
    sc.drift.windowRequests = 200;
    sc.drift.noiseMultiplier = 1.0;
    sc.drift.threshold = 0.2;
    return sc;
}

TEST(MTenantRuntime, SingleTenantMatchesServeRuntimeUnderFaults)
{
    // The 1-tenant run goes through the N-tenant loop, so this pins
    // its fail-over, admission, watchdog and delta-re-schedule paths
    // against ServeRuntime's.
    DriftingWorkload w;
    const arch::HwConfig hw;
    const auto schedCfg =
        baselines::schedulerConfig(baselines::Design::Adyna);
    const auto policy = baselines::execPolicy(baselines::Design::Adyna);
    serve::ServeConfig sc = driftServeConfig(11, 1600);
    sc.arrival.ratePerSec = 7000;
    sc.admissionControl = true;
    sc.shedLatencyFactor = 1.0;
    sc.rescheduleBudgetCycles = 40'000'000;
    const std::string plan = "tile_fail@20000000:tile=17;"
                             "tile_fail@60000000:tile=40,"
                             "duration=40000000";

    serve::ServeConfig direct_sc = sc;
    direct_sc.faultPlan = fault::parseFaultPlanOrDie(plan);
    serve::ServeRuntime direct(w.dg, w.tc, hw, schedCfg, policy,
                               direct_sc, "pabee");
    const serve::ServeReport want = direct.run();
    ASSERT_GT(want.failovers, 0);
    ASSERT_GT(want.deltaReschedules, 0);
    ASSERT_GT(want.shedRequests, 0u);
    ASSERT_TRUE(want.faultActive);

    MTenantConfig mc;
    mc.faultPlan = fault::parseFaultPlanOrDie(plan);
    serve::TenantSpec ts;
    ts.id = "solo";
    ts.serve = sc;
    mc.tenants.push_back(ts);
    MTenantRuntime rt({{&w.dg, w.tc, "pabee"}}, hw, schedCfg, policy,
                      mc);
    const MTenantReport mr = rt.run();

    ASSERT_EQ(mr.tenants.size(), 1u);
    EXPECT_EQ(serve::toJson(mr.tenants[0].serve), serve::toJson(want));
    EXPECT_EQ(mr.failoverRepairs, want.failovers);
    EXPECT_EQ(mr.repartitions, 0);
    EXPECT_EQ(mr.interferenceLinks, 0);
}

TEST(MTenantRuntime, SearchOnDriftRunsPerTenant)
{
    static DriftingWorkload drifting;
    static TestWorkload steady("skipnet", 8);
    const arch::HwConfig hw;
    const Cycles budget = 40'000'000;

    MTenantConfig mc;
    serve::TenantSpec a;
    a.id = "pabee-drift";
    a.serve = driftServeConfig(11, 1600);
    a.serve.rescheduleBudgetCycles = budget;
    a.serve.searchOnDrift = true;
    a.serve.search.chains = 2;
    a.serve.search.mutationBudget = 200;
    a.serve.search.materializeTop = 2;
    mc.tenants.push_back(a);
    serve::TenantSpec b;
    b.id = "skipnet-0";
    b.serve = smokeServeConfig(5, 200);
    b.serve.arrival.ratePerSec = 1e5;
    mc.tenants.push_back(b);

    MTenantRuntime rt({{&drifting.dg, drifting.tc, "pabee"},
                       {&steady.dg, steady.tc, "skipnet"}},
                      hw,
                      baselines::schedulerConfig(baselines::Design::Adyna),
                      baselines::execPolicy(baselines::Design::Adyna),
                      mc);
    const MTenantReport r = rt.run();

    ASSERT_EQ(r.tenants.size(), 2u);
    const serve::ServeReport &d = r.tenants[0].serve;
    ASSERT_GT(d.reschedules, 0) << "drift must trigger";
    EXPECT_TRUE(d.searchActive);
    EXPECT_GT(d.search.candidatesTried, 0u);
    EXPECT_NE(serve::toJson(d).find("\"search_reschedules\""),
              std::string::npos);
    EXPECT_LE(d.maxRescheduleCycles, budget);
    // The search-off tenant keeps the pre-search report bytes.
    EXPECT_EQ(serve::toJson(r.tenants[1].serve).find("search_"),
              std::string::npos);
}

TEST(MTenantRuntime, BackEndCacheCountersPartitionTheSharedCaches)
{
    static TestWorkload wa("skipnet", 8);
    static TestWorkload wb("pabee", 8);
    static TestWorkload wc("skipnet", 8);
    const arch::HwConfig hw;

    MTenantConfig mc;
    for (int i = 0; i < 3; ++i) {
        serve::TenantSpec ts;
        ts.id = "t" + std::to_string(i);
        ts.serve = smokeServeConfig(3 + i, 120);
        mc.tenants.push_back(ts);
    }
    MTenantRuntime rt({{&wa.dg, wa.tc, "skipnet"},
                       {&wb.dg, wb.tc, "pabee"},
                       {&wc.dg, wc.tc, "skipnet"}},
                      hw,
                      baselines::schedulerConfig(baselines::Design::Adyna),
                      baselines::execPolicy(baselines::Design::Adyna),
                      mc);
    costmodel::Mapper mapper(hw.tech);
    kernels::KernelStoreCache stores;
    rt.setSharedMapper(&mapper);
    rt.setSharedStoreCache(&stores);
    const MTenantReport r = rt.run();

    std::uint64_t mapperSum = 0;
    std::uint64_t storeSum = 0;
    for (const TenantResult &tr : r.tenants) {
        mapperSum += tr.serve.mapperHits + tr.serve.mapperMisses;
        storeSum += tr.serve.storeHits + tr.serve.storeMisses;
    }
    EXPECT_GT(mapperSum, 0u);
    EXPECT_GT(storeSum, 0u);
    EXPECT_EQ(mapperSum, mapper.hits() + mapper.misses());
    EXPECT_EQ(storeSum, stores.hits() + stores.misses());
}

TEST(MTenantReport, LongTenantIdSurvivesJson)
{
    MTenantReport r;
    r.mode = "isolation";
    TenantResult t;
    t.id = std::string(300, 'x');
    t.tiles = 48;
    r.tenants.push_back(t);
    const std::string j = toJson(r);
    EXPECT_NE(j.find("\"tenant\": \"" + t.id + "\""), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(j.back(), '}');
}

TEST(MTenantRuntime, WorkloadCountMismatchIsFatal)
{
    static TestWorkload w("skipnet", 8);
    MTenantConfig mc;
    for (int i = 0; i < 2; ++i) {
        serve::TenantSpec ts;
        ts.id = "t" + std::to_string(i);
        ts.serve = smokeServeConfig(1, 10);
        mc.tenants.push_back(ts);
    }
    EXPECT_EXIT(MTenantRuntime({{&w.dg, w.tc, "skipnet"}},
                               arch::HwConfig{},
                               baselines::schedulerConfig(
                                   baselines::Design::Adyna),
                               baselines::execPolicy(
                                   baselines::Design::Adyna),
                               mc),
                ::testing::ExitedWithCode(1), "one TenantWorkload");
}

TEST(MTenantRuntime, BatchSizeMismatchIsFatal)
{
    static TestWorkload w("skipnet", 8);
    MTenantConfig mc;
    serve::TenantSpec ts;
    ts.id = "solo";
    ts.serve = smokeServeConfig(1, 10);
    ts.serve.batching.maxBatch = 4; // the graph is compiled at 8
    mc.tenants.push_back(ts);
    MTenantRuntime rt({{&w.dg, w.tc, "skipnet"}}, arch::HwConfig{},
                      baselines::schedulerConfig(baselines::Design::Adyna),
                      baselines::execPolicy(baselines::Design::Adyna),
                      mc);
    EXPECT_EXIT(rt.run(), ::testing::ExitedWithCode(1),
                "compiled at the batcher's maxBatch");
}

} // namespace
