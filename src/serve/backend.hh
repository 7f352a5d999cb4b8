/**
 * @file
 * The per-chip serving back-end: the paper's profiler -> scheduler
 * loop run against live traffic on one chip (or one tile region of
 * one), written once and shared by ServeRuntime, the multi-tenant
 * runtime (one back-end per tenant on a shared chip) and the pod
 * runtime (one back-end per chip behind a router).
 *
 * A Backend owns the scheduler, engine, the two profilers (merged-
 * batch statistics for the scheduler, per-request statistics for the
 * drift monitor), the Batcher, the SloTracker and the installed
 * schedule with the inputs it embodies. It brings itself up
 * (profiling batches, drift reference plus noise floor, first
 * build), runs and settles dispatch periods, records completions —
 * closing a drift window, with its watchdog-guarded full or delta
 * re-schedule and optional anytime search, whenever one fills — and
 * repairs itself onto a new tile set on fail-over or a region change.
 * The chip, the fault injector, the arrival stream and every
 * cross-back-end decision stay with the caller.
 *
 * RequestSource is the open-loop arrival side of ServeRuntime and of
 * each multi-tenant tenant: it draws arrivals and per-request
 * dynamism and runs the deadline-aware admission fixpoint against one
 * back-end.
 */

#ifndef ADYNA_SERVE_BACKEND_HH
#define ADYNA_SERVE_BACKEND_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "arch/profiler.hh"
#include "serve/server.hh"

namespace adyna::serve {

/** What every back-end of one runtime borrows from it; all of it
 * must outlive the back-ends. */
struct BackendEnv
{
    const arch::HwConfig &hw;
    const core::SchedulerConfig &schedCfg;
    const core::ExecPolicy &policy;
    costmodel::Mapper &mapper;
    kernels::KernelStoreCache &stores;
};

/** One chip's (or one tile region's) serving state and loop steps. */
class Backend
{
  public:
    /** One dispatch period: the batches formed at `at` and the
     * engine's result. A caller may adjust `res` (e.g. dilate it)
     * before settle(). */
    struct Period
    {
        Tick at = 0;
        std::vector<FormedBatch> formed;
        core::PeriodResult res;
    };

    /**
     * @param trace_cfg dynamism model at the compiled batch size
     *        (fatal unless it equals cfg.batching.maxBatch).
     * @param seed seed of the bring-up profiling / drift-reference
     *        probes.
     * @param injector the fault timeline striking @p chip (the caller
     *        advances it), or nullptr.
     * @param label prefix of error messages ("tenant \"a\"", ...).
     * Every reference must outlive the back-end.
     */
    Backend(const BackendEnv &env, const graph::DynGraph &dg,
            const trace::TraceConfig &trace_cfg, const ServeConfig &cfg,
            std::uint64_t seed, arch::Chip &chip,
            const fault::FaultInjector *injector, std::string label);

    /** Restrict schedules to @p tiles before bringUp() (a tenant's
     * region; the full grid means no restriction). */
    void restrictTo(std::vector<TileId> tiles);

    /** Profile, set the drift reference and noise floor, and install
     * the first schedule. */
    void bringUp();

    /** Fail-over or region change: drop any searched plan override,
     * rebuild in full on @p tiles and install, charging the rebuild
     * from max(engineFree, now). Never subject to the watchdog: the
     * installed schedule targets tiles that are gone. */
    void repair(Tick now, std::vector<TileId> tiles, bool failover);

    /** Count one arrival at @p at toward the offered rate (shed ones
     * too, which never reach the batcher). */
    void noteArrival(Tick at, bool shed = false);

    /** Form every batch due by @p at and stream them through the
     * engine. */
    Period run(Tick at);

    /** Advance the engine-free time and the service estimate past
     * @p period. */
    void settle(const Period &period);

    /** Record one completion (latency from @p arrival, queueing until
     * @p dispatch, done at @p end); closes a drift window when one
     * fills. */
    void complete(const trace::BatchRouting &routing, Tick arrival,
                  Tick dispatch, Tick end);

    /** Delay the engine until at least @p t (weights streaming in). */
    void holdUntil(Tick t);

    /** The serving report so far; @p fault_active marks fault
     * machinery the caller ran outside this back-end. */
    ServeReport report(const std::string &workload,
                       bool fault_active = false) const;

    Batcher &batcher() { return batcher_; }
    const Batcher &batcher() const { return batcher_; }
    Tick engineFree() const { return engineFree_; }

    /** max(engineFree, next form tick): when the queued work would
     * dispatch (meaningful while something is queued). */
    Tick dispatchTick() const;

    bool haveService() const { return haveService_; }

    /** EWMA of dispatch-to-last-completion cycles. */
    double serviceEwma() const { return serviceEwma_; }

    /** Mean per-request dynamic load the installed schedule was built
     * for (the pod router's affinity target). */
    double installedLoadMean() const { return installedLoadMean_; }

    std::uint64_t arrivals() const { return arrived_; }
    std::uint64_t completed() const { return tally_.requests; }
    std::uint64_t shed() const { return tally_.shedRequests; }

  private:
    /** A candidate schedule plus its modeled runtime cost. */
    struct Rebuild
    {
        core::Schedule schedule;
        Cycles cost = 0;
        bool delta = false;
        core::DeltaStats stats;
    };

    Rebuild rebuild(Tick now, const std::vector<OpId> *delta);
    void install(Rebuild &rb, const std::vector<OpId> &changed);
    std::vector<OpId> changedOps() const;
    void closeWindow();

    BackendEnv env_;
    const graph::DynGraph &dg_;
    const trace::TraceConfig &traceCfg_;
    const ServeConfig &cfg_;
    std::uint64_t seed_;
    arch::Chip &chip_;
    const fault::FaultInjector *injector_;
    std::string label_;

    core::Scheduler scheduler_;
    core::Engine engine_;
    arch::Profiler engineProf_;
    arch::Profiler driftProf_;
    DriftMonitor monitor_;
    Batcher batcher_;
    SloTracker slo_;

    // Online schedule search (searchOnDrift): it owns its own engine,
    // so rejected candidates never touch this back-end's exec
    // counters, and it reports its own cache share.
    std::optional<search::ScheduleSearch> searcher_;
    core::PlanOverride installedOverride_;
    search::TreeState installedTree_;
    bool haveTree_ = false;
    std::vector<trace::BatchRouting> probeRing_;

    std::map<OpId, double> expectations_;
    std::map<OpId, std::vector<std::int64_t>> kernelValues_;
    // The inputs the installed schedule embodies. Delta re-schedules
    // compare fresh inputs against these, not against the previous
    // refresh, so repeated sub-tolerance drifts accumulate until an
    // op moves past the tolerance relative to what is serving.
    std::map<OpId, double> installedExp_;
    std::map<OpId, std::vector<std::int64_t>> installedKv_;
    core::Schedule schedule_;
    double installedLoadMean_ = 0.0;

    Tick engineFree_ = 0;
    double serviceEwma_ = 0.0;
    bool haveService_ = false;
    std::uint64_t arrived_ = 0;
    Tick firstArrival_ = 0;
    Tick lastArrival_ = 0;

    /** Counters accumulate here; report() fills in the rest. */
    ServeReport tally_;
};

/** Open-loop arrivals plus admission for one back-end. */
class RequestSource
{
  public:
    /** @param trace_cfg the workload's dynamism model (requests draw
     * from a batchSize-1 copy); @param seed seeds the arrival and
     * dynamism streams. */
    RequestSource(const graph::DynGraph &dg,
                  const trace::TraceConfig &trace_cfg,
                  const ServeConfig &cfg, double freq_ghz,
                  std::uint64_t seed);

    /**
     * Enqueue every arrival landing no later than @p backend's next
     * dispatch moment — shedding, under admission control, those
     * whose projected completion overshoots the deadline — and return
     * that moment. Returns Batcher::kNever once every request has
     * completed or been shed.
     */
    Tick admit(Backend &backend);

    std::uint64_t issued() const { return issued_; }
    bool done() const { return done_; }

  private:
    const ServeConfig &cfg_;
    ArrivalProcess arrivals_;
    trace::TraceGenerator reqGen_;
    double deadlineTicks_;
    std::uint64_t total_;
    std::uint64_t issued_ = 0;
    Tick nextArrival_;
    bool done_ = false;
};

} // namespace adyna::serve

#endif // ADYNA_SERVE_BACKEND_HH
