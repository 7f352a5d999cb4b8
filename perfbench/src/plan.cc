/**
 * @file
 * `plan`: one unit is one re-plan of a Table I DNN at batch 32 or
 * 128: a cold Scheduler::build with a fresh Mapper and
 * KernelStoreCache, a warm rebuild from those caches, then a one-op
 * buildDelta. Inputs (expectations, kernel values, branch profile)
 * come from a profiled trace built at set-up. Chosen because the
 * paper re-plans at runtime and solver latency is a cost of its own;
 * the scheduler, cost model and kernel stores do all the work and the
 * engine and NoC none, so this is the control for every engine or
 * NoC change and the cache-bypass case for every cache change (cold
 * builds hit nothing by construction).
 */

#include <sstream>

#include "arch/profiler.hh"
#include "baselines/designs.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "core/sampling.hh"
#include "core/scheduler.hh"
#include "core/validate.hh"
#include "costmodel/mapper.hh"
#include "kernels/store_cache.hh"
#include "trace/trace.hh"

namespace perfbench {
namespace {

using namespace adyna;

constexpr std::int64_t kBatchSizes[] = {32, 128};
constexpr int kSeedsPerCell = 5;
constexpr int kProfileBatches = 40;

/** Everything a schedule compiles down to, including the encoded
 * kernel images. */
std::string
fingerprint(const core::Schedule &sch)
{
    std::ostringstream os;
    for (const auto &seg : sch.segments) {
        for (const auto &st : seg->stages) {
            os << st.op << ':' << st.baseTiles << ':';
            for (TileId t : st.tiles)
                os << t << ',';
            for (const auto &[count, store] : st.stores) {
                os << '|' << count;
                for (const auto &k : store->kernels()) {
                    os << '/' << k.value << '#';
                    for (unsigned byte : k.image)
                        os << byte << '.';
                }
            }
            os << ';';
        }
        os << '\n';
    }
    return os.str();
}

struct Cell
{
    const Model *model = nullptr;
    std::string name;
    arch::Profiler profiler;
    std::map<OpId, double> expectations;
    std::map<OpId, std::vector<std::int64_t>> kernelValues;

    /** The one op whose expectation the delta re-plan moves, and the
     * moved expectations. */
    OpId changedOp = kInvalidOp;
    std::map<OpId, double> movedExpectations;
};

struct Schedules
{
    core::Schedule cold, warm, delta;
};

class Plan final : public Workload
{
  public:
    explicit Plan(std::uint64_t seed)
    {
        std::uint64_t k = 0;
        for (const std::string &name : models::workloadNames())
            for (std::int64_t batch : kBatchSizes) {
                models_.push_back(buildModel(name, batch));
                for (int s = 0; s < kSeedsPerCell; ++s)
                    cells_.push_back(profile(*models_.back(),
                                             deriveSeed(seed, k++), s));
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
        UnitResult u;
        const Cell &c = cells_[i];
        costmodel::Mapper mapper(hw_.tech);
        kernels::KernelStoreCache stores;
        core::Scheduler s = scheduler(c, mapper, stores);
        const Schedules sch =
            timed(u.hostMs, [&] { return replan(c, s, nullptr); });
        check(c, sch, u);
        return u;
    }

    UnitResult
    runTraced(std::size_t i, Tracer &tracer, Ledger &ledger) override
    {
        UnitResult u;
        const Cell &c = cells_[i];
        costmodel::Mapper mapper(hw_.tech);
        kernels::KernelStoreCache stores;
        core::Scheduler s = scheduler(c, mapper, stores);
        const Schedules sch =
            timed(u.hostMs, [&] { return replan(c, s, &tracer); });
        check(c, sch, u);
        const auto lookups = [](auto &cache) {
            return static_cast<double>(cache.hits() + cache.misses());
        };
        ledger["costmodel.mapper.hits"] +=
            static_cast<double>(mapper.hits());
        ledger["costmodel.mapper.lookups"] += lookups(mapper);
        ledger["kernels.store.hits"] += static_cast<double>(stores.hits());
        ledger["kernels.store.lookups"] += lookups(stores);
        ledger["kernels.store.compiles"] +=
            static_cast<double>(stores.misses());
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
        ledger["core.scheduler.cold_build_ms"] =
            medianMs("core.scheduler.cold_build");
        ledger["core.scheduler.warm_build_ms"] =
            medianMs("core.scheduler.warm_build");
        ledger["core.scheduler.delta_build_ms"] =
            medianMs("core.scheduler.delta_build");
        ledger["costmodel.mapper.searches"] =
            ledger["costmodel.mapper.lookups"];
    }

  private:
    /** The profiling prefix of System::run on the cell's trace. */
    Cell
    profile(const Model &m, std::uint64_t traceSeed, int s) const
    {
        Cell c;
        c.model = &m;
        c.name = m.bundle.name + "/b" +
                 std::to_string(m.bundle.traceConfig.batchSize) + "/" +
                 std::to_string(s);
        costmodel::Mapper mapper(hw_.tech);
        const core::Scheduler sch(
            m.dg, hw_, mapper,
            baselines::schedulerConfig(baselines::Design::Adyna));
        c.kernelValues = sch.initialKernelValues();
        trace::TraceGenerator gen(m.dg, m.bundle.traceConfig, traceSeed);
        std::map<OpId, double> sums;
        for (int b = 0; b < kProfileBatches; ++b) {
            const trace::BatchRouting routing = gen.next();
            c.profiler.noteBatch();
            for (const auto &[sw, oc] : routing.outcomes)
                c.profiler.recordBranchLoads(sw, oc.branchCounts);
            for (OpId op : m.dg.dynamicOps()) {
                const auto v = routing.dynValue(m.dg, op);
                c.profiler.recordValue(op, v);
                sums[op] += static_cast<double>(v);
            }
        }
        for (auto &[op, sum] : sums)
            c.expectations[op] = sum / kProfileBatches;
        for (auto &[op, values] : c.kernelValues)
            values = core::resampleKernelValues(
                values, core::bucketFrequencies(c.profiler.table(op), values),
                static_cast<int>(values.size()));
        // Move the middle dynamic op's expectation by a quarter.
        const std::vector<OpId> &dyn = m.dg.dynamicOps();
        ADYNA_ASSERT(!dyn.empty(), m.bundle.name, " has no dynamic op");
        c.changedOp = dyn[dyn.size() / 2];
        c.movedExpectations = c.expectations;
        c.movedExpectations[c.changedOp] *= 0.75;
        return c;
    }

    core::Scheduler
    scheduler(const Cell &c, costmodel::Mapper &mapper,
              kernels::KernelStoreCache &stores) const
    {
        core::Scheduler s(
            c.model->dg, hw_, mapper,
            baselines::schedulerConfig(baselines::Design::Adyna));
        s.setStoreCache(&stores);
        return s;
    }

    static Schedules
    replan(const Cell &c, const core::Scheduler &s, Tracer *t)
    {
        Schedules out;
        {
            Tracer::Scope span(t, "core.scheduler.cold_build");
            out.cold = s.build(c.expectations, c.kernelValues, &c.profiler);
        }
        {
            Tracer::Scope span(t, "core.scheduler.warm_build");
            out.warm = s.build(c.expectations, c.kernelValues, &c.profiler);
        }
        {
            Tracer::Scope span(t, "core.scheduler.delta_build");
            out.delta = s.buildDelta(out.warm, c.movedExpectations,
                                     c.kernelValues, &c.profiler,
                                     {c.changedOp});
        }
        return out;
    }

    void
    check(const Cell &c, const Schedules &sch, UnitResult &u) const
    {
        const std::string cold = fingerprint(sch.cold);
        u.digest = fnv1a(cold + "|" + fingerprint(sch.delta));
        u.plans = 1.0;
        if (fingerprint(sch.warm) != cold)
            u.failure = "warm rebuild differs from the cold build";
        else if (!core::validateSchedule(sch.delta, c.model->dg, hw_)
                      .empty())
            u.failure = "delta schedule fails validation";
    }

    arch::HwConfig hw_;
    std::vector<std::unique_ptr<Model>> models_;
    std::vector<Cell> cells_;
};

} // namespace

std::unique_ptr<Workload>
makePlan(std::uint64_t seed)
{
    return std::make_unique<Plan>(seed);
}

} // namespace perfbench
