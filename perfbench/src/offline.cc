/**
 * @file
 * `offline`: the paper-figure path. One unit is one System::run cell
 * of Figure 9's sweep (five Table I DNNs x five accelerator designs,
 * no GPU) at batch 128, over several trace seeds, all sharing one
 * mapper and one kernel-store cache. Chosen because it is what every
 * figure bench runs, and the engine does almost all of its work.
 *
 * The traced unit replays System::run's loop from public calls
 * (trace generation, the profiling prefix, Scheduler::build,
 * validateSchedule, Engine::runPeriod, refreshScheduleInputs) so each
 * layer gets its own span, and reads the NoC/HBM counters from the
 * Chip it owns. Its report must equal System::run's byte for byte.
 */

#include <optional>

#include "arch/chip.hh"
#include "arch/profiler.hh"
#include "baselines/designs.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "core/engine.hh"
#include "core/report_io.hh"
#include "core/sampling.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "core/validate.hh"
#include "costmodel/mapper.hh"
#include "kernels/store_cache.hh"
#include "trace/trace.hh"

namespace perfbench {
namespace {

using namespace adyna;
using baselines::Design;

constexpr std::int64_t kBatchSize = 128;

// Simulated batches per cell. Host cost per batch grows with cell
// length, so the length is part of the workload: 48 batches are one
// of the paper's 40-batch re-plan periods, one re-plan, and the start
// of the next period.
constexpr int kBatches = 48;

// Trace seeds per (DNN, design) pair.
constexpr int kSeedsPerPair = 3;

// Batches of the warm-up pass charged to set-up: enough to fill the
// shared mapper memo and store cache for every cell.
constexpr int kWarmupBatches = 8;

struct Cell
{
    std::size_t model = 0;
    Design design = Design::Adyna;
    std::uint64_t traceSeed = 1;
    std::string name;
};

class Offline final : public Workload
{
  public:
    explicit Offline(std::uint64_t seed) : mapper_(hw_.tech)
    {
        for (const std::string &name : models::workloadNames())
            models_.push_back(buildModel(name, kBatchSize));
        std::uint64_t k = 0;
        for (std::size_t m = 0; m < models_.size(); ++m)
            for (Design d : baselines::allDesigns())
                for (int s = 0; s < kSeedsPerPair; ++s) {
                    Cell c{m, d, deriveSeed(seed, k++), ""};
                    c.name = models_[m]->bundle.name + "/" +
                             baselines::designName(d) + "/" +
                             std::to_string(s);
                    cells_.push_back(std::move(c));
                }
        for (const Cell &c : cells_)
            (void)system(c, kWarmupBatches).run();
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
        core::System sys = system(cells_[i], kBatches);
        double ms = 0.0;
        UnitResult u = result(timed(ms, [&] { return sys.run(); }));
        u.hostMs = ms;
        return u;
    }

    UnitResult runTraced(std::size_t i, Tracer &tracer,
                         Ledger &ledger) override;

    void finishLedger(const std::map<std::string, Tracer::Totals> &spans,
                      int passes, Ledger &ledger) const override;

  private:
    core::System
    system(const Cell &c, int batches)
    {
        const Model &m = *models_[c.model];
        core::System sys = baselines::makeSystem(
            m.dg, m.bundle.traceConfig, hw_, c.design, batches,
            c.traceSeed);
        sys.setSharedMapper(&mapper_);
        sys.setSharedStoreCache(&stores_);
        return sys;
    }

    static UnitResult
    result(const core::RunReport &r)
    {
        UnitResult u;
        u.digest = fnv1a(core::toJson(r, /*include_batches=*/true));
        u.simBatches = kBatches;
        u.simRequests = static_cast<double>(kBatches * kBatchSize);
        u.plans = 1.0 + r.reconfigurations;
        return u;
    }

    core::RunReport replica(const Cell &c, Tracer &tracer,
                            Ledger &ledger);

    arch::HwConfig hw_;
    costmodel::Mapper mapper_;
    kernels::KernelStoreCache stores_;
    std::vector<std::unique_ptr<Model>> models_;
    std::vector<Cell> cells_;
};

/**
 * System::run without replay and fault injection (neither is used
 * here), with a span around each call into a layer.
 */
core::RunReport
Offline::replica(const Cell &c, Tracer &tracer, Ledger &ledger)
{
    const Model &m = *models_[c.model];
    const graph::DynGraph &dg = m.dg;
    const core::SchedulerConfig scfg = baselines::schedulerConfig(c.design);
    const core::ExecPolicy policy = baselines::execPolicy(c.design);
    const core::RunOptions opts =
        baselines::runOptions(c.design, kBatches, c.traceSeed);
    Tracer *t = &tracer;
    Tracer::Scope cellSpan(t, "core.system.run");

    const std::uint64_t mHits0 = mapper_.hits();
    const std::uint64_t mMisses0 = mapper_.misses();
    const std::uint64_t sHits0 = stores_.hits();
    const std::uint64_t sMisses0 = stores_.misses();

    core::Scheduler scheduler(dg, hw_, mapper_, scfg);
    scheduler.setStoreCache(&stores_);
    core::Engine engine(dg, hw_, mapper_, policy);
    arch::Chip chip(hw_);
    arch::Profiler profiler;
    trace::TraceGenerator trace(dg, m.bundle.traceConfig, opts.seed);

    std::map<OpId, double> expectations;
    std::map<OpId, std::vector<std::int64_t>> kernelValues =
        scheduler.initialKernelValues();
    if (!scfg.worstCase && opts.profileBatches > 0) {
        Tracer::Scope profileSpan(t, "core.system.profile");
        std::map<OpId, double> sums;
        trace::TraceGenerator probe(dg, m.bundle.traceConfig,
                                    opts.seed ^ 0x517cc1b727220a95ULL);
        for (int b = 0; b < opts.profileBatches; ++b) {
            std::optional<trace::BatchRouting> routing;
            {
                Tracer::Scope s(t, "trace.next");
                routing.emplace(probe.next());
            }
            profiler.noteBatch();
            for (const auto &[sw, oc] : routing->outcomes)
                profiler.recordBranchLoads(sw, oc.branchCounts);
            for (OpId op : dg.dynamicOps()) {
                const auto v = routing->dynValue(dg, op);
                profiler.recordValue(op, v);
                sums[op] += static_cast<double>(v);
            }
        }
        for (auto &[op, sum] : sums)
            expectations[op] = sum / opts.profileBatches;
        {
            Tracer::Scope s(t, "core.sampling");
            for (auto &[op, values] : kernelValues) {
                const auto freq =
                    core::bucketFrequencies(profiler.table(op), values);
                values = core::resampleKernelValues(
                    values, freq, static_cast<int>(values.size()));
            }
        }
        profiler.resetTables();
    }

    const auto build = [&] {
        Tracer::Scope s(t, "core.scheduler.build");
        return scheduler.build(expectations, kernelValues,
                               scfg.worstCase ? nullptr : &profiler);
    };
    const auto validate = [&](const core::Schedule &sch) {
        Tracer::Scope s(t, "core.validate");
        const auto issues = core::validateSchedule(sch, dg, hw_);
        ADYNA_ASSERT(issues.empty(), "invalid schedule:\n",
                     core::issuesToString(issues));
    };
    core::Schedule schedule = build();
    validate(schedule);

    core::RunReport report;
    report.workload = dg.name();
    report.design = baselines::designName(c.design);
    report.segments = static_cast<int>(schedule.segments.size());
    report.storedKernels = schedule.totalKernels();

    const int period =
        opts.reconfigPeriod > 0 ? opts.reconfigPeriod : opts.numBatches;
    Tick barrier = 0;
    int done = 0;
    std::vector<trace::BatchRouting> routings;
    while (done < opts.numBatches) {
        const int count = std::min(period, opts.numBatches - done);
        routings.clear();
        for (int b = 0; b < count; ++b) {
            Tracer::Scope s(t, "trace.next");
            routings.push_back(trace.next());
        }
        core::PeriodResult res;
        {
            Tracer::Scope s(t, "core.engine.run_period");
            res = engine.runPeriod(chip, schedule, routings, &profiler,
                                   barrier);
        }
        barrier = res.endTime;
        report.batchEnds.insert(report.batchEnds.end(),
                                res.batchEnds.begin(),
                                res.batchEnds.end());
        for (const auto &[op, cycles] : res.stageCycles) {
            auto &dst = report.stageCycles[op];
            dst.insert(dst.end(), cycles.begin(), cycles.end());
        }
        done += count;

        if (!(opts.reconfigPeriod > 0 && done < opts.numBatches &&
              !scfg.worstCase))
            continue;
        {
            Tracer::Scope s(t, "core.sampling");
            core::refreshScheduleInputs(
                profiler, opts.resampleKernels && !policy.exactKernels,
                expectations, kernelValues);
        }
        profiler.resetTables();
        schedule = build();
        validate(schedule);
        report.storedKernels =
            std::max(report.storedKernels, schedule.totalKernels());
        barrier += opts.reconfigOverheadCycles;
        ++report.reconfigurations;
    }

    report.cycles = barrier;
    const double seconds =
        static_cast<double>(barrier) / (hw_.tech.freqGhz * 1e9);
    report.timeMs = seconds * 1e3;
    report.batchesPerSecond =
        seconds > 0.0 ? opts.numBatches / seconds : 0.0;
    report.peUtilization = chip.peUtilization(barrier);
    report.hbmUtilization = chip.hbmUtilization(barrier);
    report.energy = chip.energy();
    report.usefulMacs = chip.usefulMacs();
    report.issuedMacs = chip.issuedMacs();

    ledger["costmodel.mapper.hits"] +=
        static_cast<double>(mapper_.hits() - mHits0);
    ledger["costmodel.mapper.lookups"] += static_cast<double>(
        mapper_.hits() - mHits0 + mapper_.misses() - mMisses0);
    ledger["kernels.store.hits"] +=
        static_cast<double>(stores_.hits() - sHits0);
    ledger["kernels.store.lookups"] += static_cast<double>(
        stores_.hits() - sHits0 + stores_.misses() - sMisses0);
    ledger["core.engine.exec_hits"] +=
        static_cast<double>(engine.execHits());
    ledger["core.engine.exec_lookups"] +=
        static_cast<double>(engine.execHits() + engine.execMisses());
    ledger["sim.batches"] += opts.numBatches;
    ledger["sim.cycles"] += static_cast<double>(barrier);
    ledger["arch.noc.byte_hops"] +=
        static_cast<double>(chip.noc().byteHopsServed());
    ledger["arch.noc.link_busy_ticks"] +=
        static_cast<double>(chip.noc().linkBusyTicks());
    ledger["arch.hbm.bytes"] +=
        static_cast<double>(chip.hbm().bytesServed());
    ledger["arch.hbm.busy_ticks"] +=
        static_cast<double>(chip.hbm().busyTicks());
    return report;
}

UnitResult
Offline::runTraced(std::size_t i, Tracer &tracer, Ledger &ledger)
{
    double ms = 0.0;
    UnitResult u = result(
        timed(ms, [&] { return replica(cells_[i], tracer, ledger); }));
    u.hostMs = ms;
    return u;
}

void
Offline::finishLedger(const std::map<std::string, Tracer::Totals> &spans,
                      int passes, Ledger &ledger) const
{
    const auto span = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? Tracer::Totals{} : it->second;
    };
    const double p = passes;
    const Tracer::Totals engine = span("core.engine.run_period");
    const Tracer::Totals next = span("trace.next");
    const Tracer::Totals build = span("core.scheduler.build");
    ledger["core.engine.run_period.calls"] = engine.calls / p;
    ledger["core.engine.run_period.self_ms"] = engine.selfMs / p;
    // The ledger's counters are already per pass.
    ledger["core.engine.us_per_batch"] =
        engine.selfMs / p * 1e3 / ledger["sim.batches"];
    ledger["core.engine.ns_per_kbytehop"] =
        engine.selfMs / p * 1e6 / (ledger["arch.noc.byte_hops"] / 1e3);
    ledger["trace.next.calls"] = next.calls / p;
    ledger["trace.next.self_ms"] = next.selfMs / p;
    ledger["core.system.profile_ms"] =
        span("core.system.profile").selfMs / p;
    ledger["core.scheduler.build.calls"] = build.calls / p;
    ledger["core.scheduler.build.self_ms"] = build.selfMs / p;
    ledger["core.sampling.self_ms"] = span("core.sampling").selfMs / p;
    ledger["core.validate.self_ms"] = span("core.validate").selfMs / p;
}

} // namespace

std::unique_ptr<Workload>
makeOffline(std::uint64_t seed)
{
    return std::make_unique<Offline>(seed);
}

} // namespace perfbench
