#include "serve/backend.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/sampling.hh"
#include "core/validate.hh"

namespace adyna::serve {

namespace {

/**
 * Synthetic drift-monitor series: the request's total dynamic load
 * (sum of its dyn-op values). Exit/skip gates are binary per request
 * and all shift together under a drift phase, so each op's own
 * distribution moves only slightly while the execution-path-length
 * distribution moves a lot — this series captures that correlated
 * shift. The id lives far outside any real graph's op-id range and
 * only ever enters the drift profiler, never the scheduler.
 */
constexpr OpId kLoadSeriesOp = 0xFFFFFFFFu;

/** Seed salt shared by the profiling and drift-reference probes. */
constexpr std::uint64_t kProbeSalt = 0x517cc1b727220a95ULL;

/** Record one request's dyn-value draws into a drift profiler. */
void
recordRequest(arch::Profiler &prof, const graph::DynGraph &dg,
              const trace::BatchRouting &routing)
{
    prof.noteBatch();
    std::int64_t totalLoad = 0;
    for (OpId op : dg.dynamicOps()) {
        const std::int64_t v = routing.dynValue(dg, op);
        prof.recordValue(op, v);
        totalLoad += v;
    }
    prof.recordValue(kLoadSeriesOp, totalLoad);
}

/** Adds the mapper and store-cache counter movement of its scope to
 * a report's counters: each back-end counts the lookups of its own
 * builds and dispatch periods, so back-ends sharing one cache
 * partition its activity between them. */
class CacheScope
{
  public:
    CacheScope(const costmodel::Mapper &mapper,
               const kernels::KernelStoreCache &stores,
               ServeReport &into)
        : mapper_(mapper), stores_(stores), into_(into),
          mh0_(mapper.hits()), mm0_(mapper.misses()),
          sh0_(stores.hits()), sm0_(stores.misses())
    {
    }

    ~CacheScope()
    {
        into_.mapperHits += mapper_.hits() - mh0_;
        into_.mapperMisses += mapper_.misses() - mm0_;
        into_.storeHits += stores_.hits() - sh0_;
        into_.storeMisses += stores_.misses() - sm0_;
    }

    CacheScope(const CacheScope &) = delete;
    CacheScope &operator=(const CacheScope &) = delete;

  private:
    const costmodel::Mapper &mapper_;
    const kernels::KernelStoreCache &stores_;
    ServeReport &into_;
    std::uint64_t mh0_, mm0_, sh0_, sm0_;
};

} // namespace

Backend::Backend(const BackendEnv &env, const graph::DynGraph &dg,
                 const trace::TraceConfig &trace_cfg,
                 const ServeConfig &cfg, std::uint64_t seed,
                 arch::Chip &chip, const fault::FaultInjector *injector,
                 std::string label)
    : env_(env), dg_(dg), traceCfg_(trace_cfg), cfg_(cfg), seed_(seed),
      chip_(chip), injector_(injector), label_(std::move(label)),
      scheduler_(dg, env.hw, env.mapper, env.schedCfg),
      engine_(dg, env.hw, env.mapper, env.policy),
      monitor_(cfg.drift), batcher_(cfg.batching),
      slo_(cfg.slo, env.hw.tech.freqGhz)
{
    if (traceCfg_.batchSize !=
        static_cast<std::int64_t>(cfg_.batching.maxBatch))
        ADYNA_FATAL(label_,
                    ": the workload graph must be compiled at the "
                    "batcher's maxBatch (got trace batchSize ",
                    traceCfg_.batchSize, " vs maxBatch ",
                    cfg_.batching.maxBatch, ")");
    scheduler_.setStoreCache(&env_.stores);
    if (cfg_.searchOnDrift) {
        search::SearchConfig scfg = cfg_.search;
        scfg.storeCompileCycles = cfg_.storeCompileCycles;
        searcher_.emplace(dg_, env_.hw, env_.mapper, env_.policy, scfg);
    }
}

void
Backend::restrictTo(std::vector<TileId> tiles)
{
    scheduler_.setHealthyTiles(std::move(tiles));
}

void
Backend::bringUp()
{
    // ---- offline profiling (compiled-batch statistics) -------------
    // Two observation streams: merged-batch statistics feed the
    // scheduler (allocation expectations, kernel re-sampling), while
    // per-request statistics feed the drift monitor — per-request
    // distributions are invariant to the realized batch sizes, so
    // bursty arrivals alone cannot fake a routing-distribution shift.
    kernelValues_ = scheduler_.initialKernelValues();
    if (!env_.schedCfg.worstCase && cfg_.profileBatches > 0) {
        trace::TraceGenerator probe(dg_, traceCfg_, seed_ ^ kProbeSalt);
        for (int b = 0; b < cfg_.profileBatches; ++b) {
            const trace::BatchRouting routing = probe.next();
            engineProf_.noteBatch();
            for (const auto &[sw, oc] : routing.outcomes)
                engineProf_.recordBranchLoads(sw, oc.branchCounts);
            for (OpId op : dg_.dynamicOps())
                engineProf_.recordValue(op, routing.dynValue(dg_, op));
        }
        core::refreshScheduleInputs(
            engineProf_, cfg_.resampleKernels && !env_.policy.exactKernels,
            expectations_, kernelValues_);
        engineProf_.resetTables();
    }

    // Drift reference: the per-request distribution the first
    // schedule implicitly targets. The probe shares the profiling
    // probe's seed so a drifting trace's phase tilt — drawn before
    // the first sample, hence identical across batch sizes — matches
    // the one the schedule inputs were measured under; referencing
    // an independently-tilted stream would blind the monitor to a
    // schedule mismatch that is present from the very first request.
    // Two same-distribution windows calibrate the noise floor (the
    // distance identical traffic shows at this window size).
    {
        trace::TraceConfig reqCfg = traceCfg_;
        reqCfg.batchSize = 1;
        trace::TraceGenerator refProbe(dg_, reqCfg, seed_ ^ kProbeSalt);
        const int half = cfg_.drift.windowRequests;
        for (int i = 0; i < half; ++i)
            recordRequest(driftProf_, dg_, refProbe.next());
        auto reference = driftProf_.tablesSnapshot();
        driftProf_.resetTables();
        for (int i = 0; i < half; ++i)
            recordRequest(driftProf_, dg_, refProbe.next());
        monitor_.setReference(reference);
        monitor_.setNoiseFloor(monitor_.distanceTo(driftProf_));
        // The reference keeps both windows' worth of samples.
        for (const auto &[op, hist] : driftProf_.tablesSnapshot())
            reference[op].merge(hist);
        monitor_.setReference(std::move(reference));
        driftProf_.resetTables();
    }

    Rebuild rb;
    {
        CacheScope scope(env_.mapper, env_.stores, tally_);
        rb.schedule = scheduler_.build(
            expectations_, kernelValues_,
            env_.schedCfg.worstCase ? nullptr : &engineProf_);
    }
    const auto issues = core::validateSchedule(rb.schedule, dg_, env_.hw);
    ADYNA_ASSERT(issues.empty(), label_, ": invalid schedule:\n",
                 core::issuesToString(issues));
    install(rb, {});
}

/** Ops whose allocation expectation moved beyond the delta tolerance
 * relative to the installed schedule's build inputs (plus ops whose
 * expectation appeared or vanished). */
std::vector<OpId>
Backend::changedOps() const
{
    std::vector<OpId> changed;
    for (OpId op : dg_.dynamicOps()) {
        const auto ne = expectations_.find(op);
        const auto oe = installedExp_.find(op);
        const bool haveNew = ne != expectations_.end();
        const bool haveOld = oe != installedExp_.end();
        bool moved = haveNew != haveOld;
        if (!moved && haveNew) {
            const double ref = std::max(std::abs(oe->second), 1.0);
            moved = std::abs(ne->second - oe->second) >
                    cfg_.deltaExpectationTol * ref;
        }
        if (moved)
            changed.push_back(op);
    }
    return changed;
}

/** Rebuild the schedule from the current expectations / kernel
 * values; returns the candidate plus its modeled runtime cost.
 * @p delta, when non-null, routes through Scheduler::buildDelta,
 * splicing segments untouched by the listed ops from the installed
 * schedule. An active store-fit-failure window forces a cold full
 * compile (the cached stores no longer fit — spliced ones included),
 * which the watchdog model sees as a full-cost rebuild. */
Backend::Rebuild
Backend::rebuild(Tick now, const std::vector<OpId> *delta)
{
    const bool bypassStores =
        injector_ && injector_->storeFitFailActive(now);
    if (bypassStores) {
        scheduler_.setStoreCache(nullptr);
        ++tally_.storeFitFailures;
    }
    Rebuild rb;
    std::uint64_t compiled = 0;
    {
        CacheScope scope(env_.mapper, env_.stores, tally_);
        const std::uint64_t misses0 = env_.stores.misses();
        if (delta && !bypassStores) {
            rb.schedule = scheduler_.buildDelta(
                schedule_, expectations_, kernelValues_, &engineProf_,
                *delta, &rb.stats);
            rb.delta = true;
        } else {
            rb.schedule = scheduler_.build(expectations_, kernelValues_,
                                           &engineProf_);
        }
        compiled = bypassStores ? rb.schedule.segments.size()
                                : env_.stores.misses() - misses0;
    }
    if (bypassStores)
        scheduler_.setStoreCache(&env_.stores);
    const auto issues = core::validateSchedule(rb.schedule, dg_, env_.hw);
    ADYNA_ASSERT(issues.empty(), label_, ": invalid schedule:\n",
                 core::issuesToString(issues));
    rb.cost = cfg_.reconfigOverheadCycles +
              static_cast<Cycles>(compiled) * cfg_.storeCompileCycles;
    return rb;
}

/** Install @p rb. A delta schedule's spliced segments still embody
 * the old inputs, so only the @p changed ops' installed inputs
 * advance; a full rebuild embodies every current input. */
void
Backend::install(Rebuild &rb, const std::vector<OpId> &changed)
{
    schedule_ = std::move(rb.schedule);
    if (rb.delta) {
        ++tally_.deltaReschedules;
        tally_.segmentsRebuilt += rb.stats.segmentsRebuilt;
        tally_.segmentsSpliced +=
            rb.stats.segmentsTotal - rb.stats.segmentsRebuilt;
        for (OpId op : changed) {
            const auto e = expectations_.find(op);
            if (e != expectations_.end())
                installedExp_[op] = e->second;
            else
                installedExp_.erase(op);
            const auto k = kernelValues_.find(op);
            if (k != kernelValues_.end())
                installedKv_[op] = k->second;
            else
                installedKv_.erase(op);
        }
    } else {
        installedExp_ = expectations_;
        installedKv_ = kernelValues_;
    }
    // Expectations are compiled-batch statistics: divide the batch
    // size out to compare against per-request load signatures.
    double sum = 0.0;
    for (OpId op : dg_.dynamicOps()) {
        const auto it = installedExp_.find(op);
        if (it != installedExp_.end())
            sum += it->second;
    }
    installedLoadMean_ = sum / static_cast<double>(traceCfg_.batchSize);
}

void
Backend::repair(Tick now, std::vector<TileId> tiles, bool failover)
{
    if (haveTree_) {
        // The searched structure was tuned for the old tile set;
        // the repair falls back to the pure heuristic.
        scheduler_.setPlanOverride(nullptr);
        haveTree_ = false;
    }
    scheduler_.setHealthyTiles(std::move(tiles));
    Rebuild rb = rebuild(now, nullptr);
    install(rb, {});
    engineFree_ = std::max(engineFree_, now) + rb.cost;
    if (failover)
        ++tally_.failovers;
}

void
Backend::noteArrival(Tick at, bool shed)
{
    if (arrived_ == 0)
        firstArrival_ = at;
    lastArrival_ = at;
    ++arrived_;
    if (shed)
        ++tally_.shedRequests;
}

Tick
Backend::dispatchTick() const
{
    return std::max(engineFree_, batcher_.nextFormTick());
}

void
Backend::holdUntil(Tick t)
{
    engineFree_ = std::max(engineFree_, t);
}

Backend::Period
Backend::run(Tick at)
{
    // Every batch formable at the dispatch moment goes in one engine
    // period: batches formed while the engine was busy stream
    // through the pipeline back to back.
    Period p;
    p.at = at;
    while (batcher_.queued() > 0 && batcher_.nextFormTick() <= at)
        p.formed.push_back(batcher_.form(at));

    std::vector<trace::BatchRouting> routings;
    routings.reserve(p.formed.size());
    for (const FormedBatch &fb : p.formed)
        routings.push_back(fb.routing);
    if (searcher_) {
        // Ring of the most recent dispatched batches: the search's
        // scoring probe.
        for (const trace::BatchRouting &r : routings) {
            if (static_cast<int>(probeRing_.size()) >=
                cfg_.searchProbeBatches)
                probeRing_.erase(probeRing_.begin());
            probeRing_.push_back(r);
        }
    }
    CacheScope scope(env_.mapper, env_.stores, tally_);
    p.res = engine_.runPeriod(chip_, schedule_, routings, &engineProf_,
                              at);
    return p;
}

void
Backend::settle(const Period &period)
{
    engineFree_ = period.res.endTime;
    tally_.batches += period.formed.size();
    if (!period.res.batchEnds.empty()) {
        const double service =
            static_cast<double>(period.res.batchEnds.back() - period.at);
        serviceEwma_ = haveService_ ? 0.8 * serviceEwma_ + 0.2 * service
                                    : service;
        haveService_ = true;
    }
}

void
Backend::complete(const trace::BatchRouting &routing, Tick arrival,
                  Tick dispatch, Tick end)
{
    slo_.record(arrival, dispatch, end);
    ++tally_.requests;
    // Windows close per request (not per dispatch) so they stay
    // exactly windowRequests wide even when a backlogged engine
    // completes hundreds of requests in one dispatch group — wider
    // windows would smear several drift phases into one
    // near-reference mixture.
    recordRequest(driftProf_, dg_, routing);
    if (driftProf_.windowBatches() >=
        static_cast<std::uint64_t>(cfg_.drift.windowRequests))
        closeWindow();
}

/** Score the drift and, in adaptive mode, close the loop through the
 * scheduler. */
void
Backend::closeWindow()
{
    ++tally_.driftWindows;
    const bool fire = monitor_.observe(driftProf_);
    if (fire && cfg_.driftReschedule && !env_.schedCfg.worstCase) {
        // The new schedule targets the drifted window: its
        // per-request snapshot becomes the new reference.
        auto reference = driftProf_.tablesSnapshot();
        core::refreshScheduleInputs(
            engineProf_, cfg_.resampleKernels && !env_.policy.exactKernels,
            expectations_, kernelValues_);
        engineProf_.resetTables();
        const std::vector<OpId> changed = changedOps();
        Rebuild rb =
            rebuild(engineFree_, cfg_.deltaReschedule ? &changed : nullptr);
        const Cycles budget = cfg_.rescheduleBudgetCycles;
        if (budget > 0 && rb.cost > budget) {
            // Watchdog: the rebuild blew its cycle budget. Abandon
            // it, keep the last-known-good schedule (and its
            // reference, so the monitor keeps scoring against what is
            // actually installed), and charge only the budget the
            // watchdog let the rebuild burn before killing it.
            engineFree_ += budget;
            ++tally_.watchdogFallbacks;
            tally_.maxRescheduleCycles =
                std::max(tally_.maxRescheduleCycles, budget);
        } else {
            Cycles charge = rb.cost;
            if (searcher_ && !probeRing_.empty()) {
                // Anytime search inside the watchdog's leftover: its
                // modeled spend is capped at budget - rb.cost, so
                // charge never exceeds the budget (0 = unbounded).
                searcher_->setCycleBudget(budget > 0 ? budget - rb.cost
                                                     : 0);
                searcher_->setSeed(
                    cfg_.search.seed ^
                    (0x2545f4914f6cdd1dULL *
                     static_cast<std::uint64_t>(tally_.reschedules + 1)));
                search::ScheduleSearch::Result sr = searcher_->run(
                    scheduler_, rb.schedule,
                    haveTree_ ? &installedTree_ : nullptr, expectations_,
                    kernelValues_, &engineProf_, probeRing_,
                    &env_.stores, &tally_.search);
                charge += sr.spentCycles;
                if (sr.improved) {
                    rb.schedule = std::move(sr.schedule);
                    installedOverride_ = std::move(sr.planOverride);
                    installedTree_ = sr.tree;
                    haveTree_ = true;
                    // Later delta re-schedules splice against the
                    // searched structure.
                    scheduler_.setPlanOverride(&installedOverride_);
                    ++tally_.searchReschedules;
                }
                ADYNA_ASSERT(budget == 0 || charge <= budget,
                             "search overshot the watchdog budget");
                engineFree_ += sr.spentCycles;
            }
            tally_.maxRescheduleCycles =
                std::max(tally_.maxRescheduleCycles, charge);
            install(rb, changed);
            monitor_.setReference(std::move(reference));
            // The dispatch barrier already drained the pipeline;
            // charge the kernel/metadata reload on top.
            engineFree_ += cfg_.reconfigOverheadCycles;
            ++tally_.reschedules;
        }
    }
    driftProf_.resetTables();
}

ServeReport
Backend::report(const std::string &workload, bool fault_active) const
{
    ServeReport r = tally_;
    r.workload = workload;
    r.mode = cfg_.driftReschedule ? "adaptive" : "static";
    r.meanBatchSize = r.batches == 0
                          ? 0.0
                          : static_cast<double>(r.requests) /
                                static_cast<double>(r.batches);
    const double tickSec = 1.0 / (env_.hw.tech.freqGhz * 1e9);
    if (arrived_ > 1 && lastArrival_ > firstArrival_)
        r.offeredRps =
            static_cast<double>(arrived_ - 1) /
            (static_cast<double>(lastArrival_ - firstArrival_) * tickSec);
    r.horizonTicks = slo_.lastEnd();
    if (r.horizonTicks > 0)
        r.achievedRps =
            static_cast<double>(r.requests) /
            (static_cast<double>(r.horizonTicks) * tickSec);
    r.p50Ms = slo_.latencyPercentileMs(0.50);
    r.p95Ms = slo_.latencyPercentileMs(0.95);
    r.p99Ms = slo_.latencyPercentileMs(0.99);
    r.meanMs = slo_.meanLatencyMs();
    r.maxMs = slo_.maxLatencyMs();
    r.meanQueueMs = slo_.meanQueueMs();
    r.sloAttainment = slo_.sloAttainment();
    r.goodputRps = slo_.goodputRps(r.horizonTicks);
    r.lastDriftDistance = monitor_.lastDistance();
    r.driftThreshold = monitor_.effectiveThreshold();
    r.execHits = engine_.execHits();
    r.execMisses = engine_.execMisses();
    r.faultActive = fault_active || injector_ != nullptr ||
                    cfg_.admissionControl ||
                    cfg_.rescheduleBudgetCycles > 0;
    r.searchActive = cfg_.searchOnDrift;
    if (injector_) {
        const fault::FaultStats fs = injector_->stats(chip_);
        r.failedTiles = fs.failedTiles;
        r.downLinks = fs.downLinks;
        r.degradedLinks = fs.degradedLinks;
        r.probeDrops = fs.probeDrops;
        r.probeRetries = fs.probeRetries;
        r.probeGiveUps = fs.probeGiveUps;
        r.nocDetours = fs.detourRoutes;
        r.unroutablePaths = fs.unroutablePaths;
    }
    return r;
}

RequestSource::RequestSource(const graph::DynGraph &dg,
                             const trace::TraceConfig &trace_cfg,
                             const ServeConfig &cfg, double freq_ghz,
                             std::uint64_t seed)
    : cfg_(cfg),
      arrivals_(
          [&] {
              ArrivalConfig a = cfg.arrival;
              a.freqGhz = freq_ghz;
              return a;
          }(),
          seed ^ 0x9e3779b97f4a7c15ULL),
      reqGen_(dg,
              [&] {
                  trace::TraceConfig t = trace_cfg;
                  t.batchSize = 1;
                  return t;
              }(),
              seed),
      deadlineTicks_(cfg.slo.deadlineMs * freq_ghz * 1e6),
      total_(static_cast<std::uint64_t>(cfg.numRequests)),
      nextArrival_(arrivals_.next())
{
}

Tick
RequestSource::admit(Backend &backend)
{
    if (done_)
        return Batcher::kNever;
    Batcher &batcher = backend.batcher();
    if (backend.completed() + backend.shed() < total_) {
        // Admission can only pull the dispatch moment earlier (the
        // batch fills up), so iterate to the fixpoint.
        for (;;) {
            const Tick form = batcher.nextFormTick();
            const Tick dispatchAt =
                form == Batcher::kNever
                    ? Batcher::kNever
                    : std::max(backend.engineFree(), form);
            if (issued_ == total_ || nextArrival_ > dispatchAt)
                break;
            const Tick at = nextArrival_;
            nextArrival_ = arrivals_.next();
            const std::uint64_t id = issued_++;
            if (cfg_.admissionControl && backend.haveService()) {
                // Projected completion: engine backlog, plus the
                // batches already queued ahead of this arrival, plus
                // its own service (an EWMA of recent
                // dispatch-to-completion times). Without the queued
                // term an open-loop overload admits everything before
                // the engine's busy horizon ever moves.
                const double backlog =
                    backend.engineFree() > at
                        ? static_cast<double>(backend.engineFree() - at)
                        : 0.0;
                const double queuedAhead =
                    static_cast<double>(batcher.queued()) /
                    cfg_.batching.maxBatch;
                if (backlog + (1.0 + queuedAhead) * backend.serviceEwma() >
                    cfg_.shedLatencyFactor * deadlineTicks_) {
                    // Shed: draw (and discard) the routing so the
                    // dynamism stream stays aligned with a
                    // non-shedding run of the same seed.
                    (void)reqGen_.next();
                    backend.noteArrival(at, true);
                    continue;
                }
            }
            Request r;
            r.id = id;
            r.arrival = at;
            r.routing = reqGen_.next();
            backend.noteArrival(at);
            batcher.enqueue(std::move(r));
        }
        if (batcher.queued() > 0)
            return backend.dispatchTick();
    }
    // Every request is accounted for: nothing left to dispatch.
    ADYNA_ASSERT(issued_ == total_ &&
                     backend.completed() + backend.shed() == issued_ &&
                     batcher.queued() == 0,
                 "request conservation: issued ", issued_, " of ", total_,
                 ", completed ", backend.completed(), ", shed ",
                 backend.shed(), ", queued ", batcher.queued());
    done_ = true;
    return Batcher::kNever;
}

} // namespace adyna::serve
