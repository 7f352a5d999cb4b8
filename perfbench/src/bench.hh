/**
 * @file
 * Shared pieces of the host-time benchmark: the workload interface
 * the main loop runs, the span tracer of traced runs, the per-layer
 * ledger, and small helpers (report hashing, seed derivation, model
 * construction).
 *
 * A workload is a fixed list of cells. One *unit* is one call into
 * the simulator for one cell that returns a report; the main loop runs
 * the cell list in whole passes, back to back on one thread (a
 * closed loop), and checks every unit's output.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/hwconfig.hh"
#include "graph/dyngraph.hh"
#include "models/models.hh"

namespace adyna::serve {
struct ServeReport;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Run @p fn, storing its wall-clock time in @p ms. */
template <typename Fn>
auto
timed(double &ms, Fn &&fn)
{
    const std::int64_t t0 = nowNs();
    auto out = fn();
    ms = static_cast<double>(nowNs() - t0) * 1e-6;
    return out;
}

/**
 * Span recorder for traced runs. Spans are kept in memory (name,
 * start, end, parent) and reduced at the end: a name's self time is
 * its spans' durations minus the time their child spans cover.
 */
class Tracer
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        double selfMs = 0.0;
        std::vector<double> durationsMs;
    };

    /** RAII span; @p name must be a string literal. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name)
            : tracer_(tracer), index_(tracer ? tracer->open(name) : -1)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_;
    };

    int open(const char *name);
    void close(int index);

    /** Per-name totals over every recorded span. */
    std::map<std::string, Totals> reduce() const;

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t start;
        std::int64_t end;
    };
    std::vector<Span> spans_;
    int current_ = -1;
};

/** Per-layer values of a traced run, keyed by metric name. */
using Ledger = std::map<std::string, double>;

/** What one unit produced. */
struct UnitResult
{
    /** FNV-1a of the report's serialized bytes (the output check). */
    std::uint64_t digest = 0;

    /** Empty when the unit's own invariants held; else why not. */
    std::string failure;

    /** Host time of the unit's calls into the simulator (set-up of
     * the call and the output check excluded). */
    double hostMs = 0.0;

    // Simulated work the unit completed.
    double simBatches = 0.0;
    double simRequests = 0.0;
    double plans = 0.0;
};

/** One benchmark workload: a fixed cell list built at set-up. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::size_t cellCount() const = 0;
    virtual const std::string &cellName(std::size_t i) const = 0;

    /** One untraced unit of cell @p i. */
    virtual UnitResult run(std::size_t i) = 0;

    /**
     * One traced unit of cell @p i: spans go to @p tracer, counters
     * are added into @p ledger. The unit must compute exactly what
     * run(i) computes.
     */
    virtual UnitResult runTraced(std::size_t i, Tracer &tracer,
                                 Ledger &ledger) = 0;

    /** Derive the per-layer metrics of one traced run from its
     * spans (totals over @p passes whole passes) and @p ledger
     * (counters already divided by @p passes). */
    virtual void finishLedger(const std::map<std::string,
                                             Tracer::Totals> &spans,
                              int passes, Ledger &ledger) const = 0;
};

/** Set up workload @p name for benchmark seed @p seed (fatal on an
 * unknown name). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

std::unique_ptr<Workload> makeOffline(std::uint64_t seed);
std::unique_ptr<Workload> makeServe(std::uint64_t seed);
std::unique_ptr<Workload> makeFleet(std::uint64_t seed);
std::unique_ptr<Workload> makePlan(std::uint64_t seed);

/** FNV-1a 64 of @p bytes. */
std::uint64_t fnv1a(const std::string &bytes);

/** The @p k-th simulator seed derived from benchmark seed @p seed
 * (SplitMix64; never 0). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t k);

/** A paper workload compiled at one batch size. */
struct Model
{
    adyna::models::ModelBundle bundle;
    adyna::graph::DynGraph dg;
};

/** Build model @p name at @p batch; the result is heap-allocated so
 * the graph address stays fixed for the runtimes that reference it. */
std::unique_ptr<Model> buildModel(const std::string &name,
                                  std::int64_t batch);

/** Capacity of a model on the full grid, from an Adyna-static
 * offline run (the loadgens' calibration). */
struct Calibration
{
    double capacityRps = 0.0;
    double batchIntervalMs = 0.0;
};
Calibration calibrate(const Model &model,
                      const adyna::arch::HwConfig &hw,
                      std::uint64_t seed);

/** Add a serving report's mapper / store / exec-memo counters to
 * the ledger's cache keys. */
void addCacheCounters(const adyna::serve::ServeReport &r, Ledger &ledger);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
