/**
 * @file
 * `serve`: one unit is one ServeRuntime::run cell on SkipNet, PABEE
 * or Tutel-MoE under Poisson arrivals at 0.6x the calibrated
 * capacity. Stationary cells are mixed with drifting cells; drifting
 * cells run drift re-scheduling through the delta path and the
 * anytime search under the watchdog. Chosen because serving is where
 * NoC multicast, link reservation and per-request trace draws
 * dominate host time, and because stationary cells never call the
 * scheduler: the same serving code runs with and without re-planning.
 *
 * Every unit gets its own mapper and store cache, as serve_loadgen's
 * cells do: the serve report carries cache counters, so shared caches
 * would make its bytes depend on which cells ran before.
 */

#include "baselines/designs.hh"
#include "bench.hh"
#include "costmodel/mapper.hh"
#include "kernels/store_cache.hh"
#include "serve/server.hh"

namespace perfbench {
namespace {

using namespace adyna;

constexpr int kMaxBatch = 32;
constexpr int kRequests = 1000;
constexpr double kRateFrac = 0.6;
constexpr double kDeadlineIntervals = 6.0;
constexpr double kDriftStrength = 0.9;
constexpr int kDriftPeriod = 400;
constexpr int kSeedsPerCell = 12;
constexpr Cycles kWatchdogBudget = 40'000'000;

struct Cell
{
    std::size_t model = 0;
    bool drifting = false;
    std::uint64_t seed = 1;
    std::string name;
};

class Serve final : public Workload
{
  public:
    explicit Serve(std::uint64_t seed)
    {
        for (const char *name : {"skipnet", "pabee", "tutel-moe"}) {
            models_.push_back(buildModel(name, kMaxBatch));
            calibs_.push_back(calibrate(*models_.back(), hw_, seed));
        }
        std::uint64_t k = 0;
        for (std::size_t m = 0; m < models_.size(); ++m)
            for (bool drifting : {false, true})
                for (int s = 0; s < kSeedsPerCell; ++s) {
                    Cell c{m, drifting, deriveSeed(seed, k++), ""};
                    c.name = models_[m]->bundle.name +
                             (drifting ? "/drifting/" : "/stationary/") +
                             std::to_string(s);
                    cells_.push_back(std::move(c));
                }
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
        double ms = 0.0;
        UnitResult u = result(timed(ms, [&] { return serve(cells_[i]); }));
        u.hostMs = ms;
        return u;
    }

    UnitResult
    runTraced(std::size_t i, Tracer &tracer, Ledger &ledger) override
    {
        const Cell &c = cells_[i];
        double ms = 0.0;
        const serve::ServeReport r = timed(ms, [&] {
            Tracer::Scope s(&tracer, c.drifting ? "serve.run.drifting"
                                                : "serve.run.stationary");
            return serve(c);
        });
        ledger["serve.batches"] += static_cast<double>(r.batches);
        ledger["serve.requests"] += static_cast<double>(r.requests);
        ledger["serve.reschedules"] += r.reschedules;
        ledger["serve.delta_reschedules"] += r.deltaReschedules;
        ledger["serve.search_reschedules"] += r.searchReschedules;
        ledger["core.scheduler.segments_spliced"] +=
            static_cast<double>(r.segmentsSpliced);
        ledger["core.scheduler.segments_rebuilt"] +=
            static_cast<double>(r.segmentsRebuilt);
        ledger["search.candidates_tried"] +=
            static_cast<double>(r.search.candidatesTried);
        ledger["search.materialized"] +=
            static_cast<double>(r.search.materialized);
        ledger["serve.p99_ms_sum"] += r.p99Ms;
        ledger["serve.goodput_rps_sum"] += r.goodputRps;
        ledger["sim.cycles"] += static_cast<double>(r.horizonTicks);
        addCacheCounters(r, ledger);
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
        ledger["serve.run.stationary_ms"] =
            medianMs("serve.run.stationary");
        ledger["serve.run.drifting_ms"] = medianMs("serve.run.drifting");
        ledger["serve.mean_batch"] =
            ledger["serve.requests"] / ledger["serve.batches"];
        const double segs = ledger["core.scheduler.segments_spliced"] +
                            ledger["core.scheduler.segments_rebuilt"];
        ledger["core.scheduler.splice_ratio"] =
            segs > 0 ? ledger["core.scheduler.segments_spliced"] / segs
                     : 0.0;
        const double cells = static_cast<double>(cells_.size());
        ledger["serve.sim_p99_ms"] = ledger["serve.p99_ms_sum"] / cells;
        ledger["serve.sim_goodput_rps"] =
            ledger["serve.goodput_rps_sum"] / cells;
    }

  private:
    serve::ServeReport
    serve(const Cell &c) const
    {
        const Model &m = *models_[c.model];
        const Calibration &cal = calibs_[c.model];
        trace::TraceConfig tc = m.bundle.traceConfig;
        tc.driftStrength = c.drifting ? kDriftStrength : 0.0;
        tc.driftPeriod = kDriftPeriod;

        serve::ServeConfig sc;
        sc.arrival.ratePerSec = kRateFrac * cal.capacityRps;
        sc.batching.maxBatch = kMaxBatch;
        sc.batching.maxWaitCycles = static_cast<Cycles>(
            cal.batchIntervalMs * 1e-3 * hw_.tech.freqGhz * 1e9);
        sc.slo.deadlineMs = kDeadlineIntervals * cal.batchIntervalMs;
        // A sensitive trigger and a small search: nearly every drifting
        // cell re-plans, at a bounded cost. With a rare trigger or a
        // large search, whether a cell happens to re-plan decides
        // most of its host time, and the figures follow the seed
        // rather than the code.
        sc.drift.windowRequests = 200;
        sc.drift.noiseMultiplier = 1.0;
        sc.drift.threshold = 0.1;
        sc.drift.hysteresisWindows = 1;
        sc.driftReschedule = c.drifting;
        sc.numRequests = kRequests;
        sc.seed = c.seed;
        if (c.drifting) {
            sc.rescheduleBudgetCycles = kWatchdogBudget;
            sc.searchOnDrift = true;
            sc.search.chains = 2;
            sc.search.mutationBudget = 200;
            sc.search.materializeTop = 1;
            sc.searchProbeBatches = 4;
        }

        costmodel::Mapper mapper(hw_.tech);
        kernels::KernelStoreCache stores;
        serve::ServeRuntime rt(
            m.dg, tc, hw_,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), sc,
            m.bundle.name);
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&stores);
        return rt.run();
    }

    static UnitResult
    result(const serve::ServeReport &r)
    {
        UnitResult u;
        u.digest = fnv1a(serve::toJson(r));
        u.simBatches = static_cast<double>(r.batches);
        u.simRequests = static_cast<double>(r.requests);
        u.plans = 1.0 + r.reschedules;
        if (r.requests + r.shedRequests != kRequests)
            u.failure = "request conservation: " +
                        std::to_string(r.requests) + " completed + " +
                        std::to_string(r.shedRequests) + " shed != " +
                        std::to_string(kRequests) + " offered";
        return u;
    }

    arch::HwConfig hw_;
    std::vector<std::unique_ptr<Model>> models_;
    std::vector<Calibration> calibs_;
    std::vector<Cell> cells_;
};

} // namespace

void
addCacheCounters(const serve::ServeReport &r, Ledger &ledger)
{
    ledger["costmodel.mapper.hits"] += static_cast<double>(r.mapperHits);
    ledger["costmodel.mapper.lookups"] +=
        static_cast<double>(r.mapperHits + r.mapperMisses);
    ledger["kernels.store.hits"] += static_cast<double>(r.storeHits);
    ledger["kernels.store.lookups"] +=
        static_cast<double>(r.storeHits + r.storeMisses);
    ledger["core.engine.exec_hits"] += static_cast<double>(r.execHits);
    ledger["core.engine.exec_lookups"] +=
        static_cast<double>(r.execHits + r.execMisses);
}

std::unique_ptr<Workload>
makeServe(std::uint64_t seed)
{
    return std::make_unique<Serve>(seed);
}

} // namespace perfbench
