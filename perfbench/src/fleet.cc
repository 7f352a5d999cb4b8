/**
 * @file
 * `fleet`: one unit is one MTenantRuntime::run or PodRuntime::run
 * cell. The multi-tenant cells co-schedule SkipNet, PABEE and
 * Tutel-MoE as three tenants on isolation-aware partitions; the pod
 * cells serve SkipNet on K=4 replicated chips under hedging and the
 * circuit breaker, with and without a chip_slow straggler. Chosen
 * because these are the per-chip serving back-ends that run in
 * parallel to ServeRuntime; without them a regression in `mtenant`
 * or `pod` would not show.
 *
 * Every unit gets its own mapper and store cache (the reports carry
 * cache counters), as the mtenant/pod loadgens' cells do.
 */

#include <cstdio>

#include "baselines/designs.hh"
#include "bench.hh"
#include "costmodel/mapper.hh"
#include "fault/fault.hh"
#include "kernels/store_cache.hh"
#include "mtenant/runtime.hh"
#include "pod/runtime.hh"

namespace perfbench {
namespace {

using namespace adyna;

constexpr int kMaxBatch = 8;
constexpr double kDeadlineIntervals = 8.0;
constexpr int kTenantRequests = 120;
constexpr int kPodChips = 4;
constexpr int kPodRequestsPerChip = 150;
constexpr double kPodRateFrac = 0.6;
constexpr double kSlowFactor = 5.0;

// Seeds per cell kind. Pod cells are about a fifth of the cost of
// multi-tenant cells; these counts keep the median unit inside the
// pod cluster and the 90th percentile inside the multi-tenant one,
// rather than in the gap between them.
constexpr int kMTenantSeeds = 10;
constexpr int kPodSeeds = 40;

/** One tenant of a multi-tenant cell (mtenant_loadgen's cells). */
struct TenantDef
{
    std::size_t model = 0;
    serve::SloClass cls = serve::SloClass::Standard;
    serve::ArrivalKind kind = serve::ArrivalKind::Poisson;
    double rateFrac = 0.6;
};

enum class Kind { EvenMix, NoisyNeighbor, Pod, PodStraggler };

struct Cell
{
    Kind kind = Kind::Pod;
    std::uint64_t seed = 1;
    std::string name;
};

bool
isPod(Kind k)
{
    return k == Kind::Pod || k == Kind::PodStraggler;
}

class Fleet final : public Workload
{
  public:
    explicit Fleet(std::uint64_t seed)
    {
        for (const char *name : {"skipnet", "pabee", "tutel-moe"}) {
            models_.push_back(buildModel(name, kMaxBatch));
            calibs_.push_back(calibrate(*models_.back(), hw_, seed));
        }
        const std::pair<Kind, const char *> kinds[] = {
            {Kind::EvenMix, "mtenant/even-mix"},
            {Kind::NoisyNeighbor, "mtenant/noisy-neighbor"},
            {Kind::Pod, "pod/k4"},
            {Kind::PodStraggler, "pod/k4-straggler"},
        };
        std::uint64_t k = 0;
        for (const auto &[kind, name] : kinds)
            for (int s = 0; s < (isPod(kind) ? kPodSeeds : kMTenantSeeds);
                 ++s)
                cells_.push_back({kind, deriveSeed(seed, k++),
                                  std::string(name) + "/" +
                                      std::to_string(s)});
    }

    std::size_t cellCount() const override { return cells_.size(); }
    const std::string &
    cellName(std::size_t i) const override
    {
        return cells_[i].name;
    }

    UnitResult
    run(std::size_t i) override
    {
        const Cell &c = cells_[i];
        double ms = 0.0;
        UnitResult u =
            isPod(c.kind)
                ? result(timed(ms, [&] { return pod(c); }))
                : result(timed(ms, [&] { return mtenant(c); }));
        u.hostMs = ms;
        return u;
    }

    UnitResult
    runTraced(std::size_t i, Tracer &tracer, Ledger &ledger) override
    {
        const Cell &c = cells_[i];
        if (isPod(c.kind)) {
            double ms = 0.0;
            const pod::PodReport r = timed(ms, [&] {
                Tracer::Scope s(&tracer, "pod.run");
                return pod(c);
            });
            const pod::PodReliabilityStats &rel = r.reliability;
            ledger["pod.hedges"] += static_cast<double>(rel.hedges);
            ledger["pod.hedge_cancelled"] +=
                static_cast<double>(rel.hedgeCancelled);
            ledger["pod.wasted_completions"] +=
                static_cast<double>(rel.wastedCompletions);
            ledger["pod.breaker_trips"] +=
                static_cast<double>(rel.breakerTrips);
            ledger["pod.ic_transfers"] +=
                static_cast<double>(r.icTransfers);
            ledger["pod.rerouted"] += static_cast<double>(r.rerouted);
            ledger["pod.goodput_rps_sum"] += r.goodputRps;
            ledger["sim.cycles"] += static_cast<double>(r.horizonTicks);
            for (const pod::ChipResult &cr : r.chips)
                addCacheCounters(cr.serve, ledger);
            UnitResult u = result(r);
            u.hostMs = ms;
            return u;
        }
        double ms = 0.0;
        const mtenant::MTenantReport r = timed(ms, [&] {
            Tracer::Scope s(&tracer, "mtenant.run");
            return mtenant(c);
        });
        ledger["mtenant.repartitions"] += r.repartitions;
        ledger["mtenant.tenant_switches"] += r.tenantSwitches;
        ledger["mtenant.goodput_rps_sum"] += r.aggregateGoodputRps;
        ledger["sim.cycles"] += static_cast<double>(r.horizonTicks);
        for (const mtenant::TenantResult &tr : r.tenants)
            addCacheCounters(tr.serve, ledger);
        UnitResult u = result(r);
        u.hostMs = ms;
        return u;
    }

    void
    finishLedger(const std::map<std::string, Tracer::Totals> &spans,
                 int, Ledger &ledger) const override
    {
        const auto medianMs = [&](const char *name) {
            const auto it = spans.find(name);
            return it == spans.end() ? 0.0
                                     : median(it->second.durationsMs);
        };
        ledger["mtenant.run_ms"] = medianMs("mtenant.run");
        ledger["pod.run_ms"] = medianMs("pod.run");
        double podCells = 0.0;
        for (const Cell &c : cells_)
            podCells += isPod(c.kind) ? 1.0 : 0.0;
        const double mtCells =
            static_cast<double>(cells_.size()) - podCells;
        ledger["pod.sim_goodput_rps"] =
            ledger["pod.goodput_rps_sum"] / podCells;
        ledger["mtenant.sim_goodput_rps"] =
            ledger["mtenant.goodput_rps_sum"] / mtCells;
    }

  private:
    serve::ServeConfig
    serveConfig(std::size_t model, double rate, int requests,
                double deadline_scale, std::uint64_t seed) const
    {
        const Calibration &cal = calibs_[model];
        serve::ServeConfig sc;
        sc.arrival.ratePerSec = rate;
        sc.batching.maxBatch = kMaxBatch;
        sc.batching.maxWaitCycles = static_cast<Cycles>(
            cal.batchIntervalMs * 1e-3 * hw_.tech.freqGhz * 1e9);
        sc.slo.deadlineMs =
            kDeadlineIntervals * deadline_scale * cal.batchIntervalMs;
        sc.numRequests = requests;
        sc.seed = seed;
        return sc;
    }

    mtenant::MTenantReport
    mtenant(const Cell &c) const
    {
        using serve::ArrivalKind;
        using serve::SloClass;
        const std::vector<TenantDef> tenants =
            c.kind == Kind::EvenMix
                ? std::vector<TenantDef>{{0, SloClass::Standard,
                                          ArrivalKind::Poisson, 0.6},
                                         {1, SloClass::Standard,
                                          ArrivalKind::Poisson, 0.6},
                                         {2, SloClass::Standard,
                                          ArrivalKind::Poisson, 0.6}}
                : std::vector<TenantDef>{{0, SloClass::LatencyCritical,
                                          ArrivalKind::Poisson, 0.7},
                                         {1, SloClass::Standard,
                                          ArrivalKind::Bursty, 0.6},
                                         {2, SloClass::BestEffort,
                                          ArrivalKind::Poisson, 0.5}};
        mtenant::MTenantConfig mc;
        mc.partition.kind = mtenant::PartitionKind::IsolationAware;
        std::vector<mtenant::TenantWorkload> wls;
        for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
            const TenantDef &d = tenants[ti];
            const Model &m = *models_[d.model];
            const double classMult =
                d.cls == SloClass::LatencyCritical ? 1.0
                : d.cls == SloClass::Standard      ? 4.0
                                                   : 8.0;
            serve::TenantSpec ts;
            ts.id = m.bundle.name + "-" + std::to_string(ti);
            ts.cls = d.cls;
            // A tenant owns about a third of the grid.
            ts.serve = serveConfig(
                d.model, d.rateFrac * calibs_[d.model].capacityRps / 3.0,
                kTenantRequests, classMult, c.seed);
            ts.serve.arrival.kind = d.kind;
            if (d.kind == ArrivalKind::Bursty) {
                ts.serve.arrival.burstRateMultiplier = 10.0;
                ts.serve.arrival.burstFraction = 0.12;
                ts.serve.arrival.burstDwellSec = 0.008;
            }
            ts.loadWeight = d.rateFrac;
            mc.tenants.push_back(std::move(ts));
            trace::TraceConfig tc = m.bundle.traceConfig;
            tc.driftStrength = 0.0;
            wls.push_back({&m.dg, tc, m.bundle.name});
        }
        costmodel::Mapper mapper(hw_.tech);
        kernels::KernelStoreCache stores;
        mtenant::MTenantRuntime rt(
            std::move(wls), hw_,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna),
            std::move(mc));
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&stores);
        return rt.run();
    }

    pod::PodReport
    pod(const Cell &c) const
    {
        const Model &m = *models_[0];
        const double rate =
            kPodRateFrac * kPodChips * calibs_[0].capacityRps;
        const int requests = kPodRequestsPerChip * kPodChips;
        pod::PodConfig pc;
        pc.chips = kPodChips;
        pc.placement = pod::Placement::Replicated;
        pc.router.policy = pod::RoutePolicy::LeastLoaded;
        pc.router.queueLimit = 8 * kMaxBatch;
        pc.serve = serveConfig(0, rate, requests, 1.0, c.seed);
        pc.reliability.hedging = true;
        pc.reliability.breaker = true;
        if (c.kind == Kind::PodStraggler) {
            // A permanent straggler from a third of the arrival span.
            const double slowSec = requests / rate / 3.0;
            char plan[128];
            std::snprintf(plan, sizeof(plan),
                          "chip_slow@%llu:chip=1,factor=%.17g",
                          static_cast<unsigned long long>(
                              slowSec * hw_.tech.freqGhz * 1e9),
                          kSlowFactor);
            pc.faultPlan = fault::parseFaultPlanOrDie(plan);
        }
        trace::TraceConfig tc = m.bundle.traceConfig;
        costmodel::Mapper mapper(hw_.tech);
        kernels::KernelStoreCache stores;
        pod::PodRuntime rt(
            {{&m.dg, tc, m.bundle.name}}, hw_,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna),
            std::move(pc));
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&stores);
        return rt.run();
    }

    static UnitResult
    result(const mtenant::MTenantReport &r)
    {
        UnitResult u;
        u.digest = fnv1a(mtenant::toJson(r));
        for (const mtenant::TenantResult &tr : r.tenants) {
            u.simBatches += static_cast<double>(tr.serve.batches);
            u.simRequests += static_cast<double>(tr.serve.requests);
            u.plans += 1.0 + tr.serve.reschedules;
            if (tr.serve.requests + tr.serve.shedRequests !=
                kTenantRequests)
                u.failure = "request conservation on tenant " + tr.id;
        }
        return u;
    }

    static UnitResult
    result(const pod::PodReport &r)
    {
        UnitResult u;
        u.digest = fnv1a(pod::toJson(r));
        u.simRequests = static_cast<double>(r.requests);
        for (const pod::ChipResult &cr : r.chips) {
            u.simBatches += static_cast<double>(cr.serve.batches);
            u.plans += 1.0 + cr.serve.reschedules;
        }
        const pod::PodReliabilityStats &rel = r.reliability;
        const std::uint64_t accounted = r.requests + r.shedRequests +
                                        r.darkChipSheds + rel.timeouts;
        if (accounted != kPodRequestsPerChip * kPodChips)
            u.failure = "request conservation: " +
                        std::to_string(accounted) + " accounted of " +
                        std::to_string(kPodRequestsPerChip * kPodChips);
        else if (rel.hedgeCancelled + rel.wastedCompletions != rel.hedges)
            u.failure = "hedging not exactly-once: " +
                        std::to_string(rel.hedgeCancelled) +
                        " cancelled + " +
                        std::to_string(rel.wastedCompletions) +
                        " wasted != " + std::to_string(rel.hedges) +
                        " hedges";
        return u;
    }

    arch::HwConfig hw_;
    std::vector<std::unique_ptr<Model>> models_;
    std::vector<Calibration> calibs_;
    std::vector<Cell> cells_;
};

} // namespace

std::unique_ptr<Workload>
makeFleet(std::uint64_t seed)
{
    return std::make_unique<Fleet>(seed);
}

} // namespace perfbench
