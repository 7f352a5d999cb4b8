/**
 * @file
 * The benchmark process: sets one workload up several times, then
 * runs its cell list in whole passes on one thread until the time
 * budget is spent, checking every unit's output. Prints one JSON
 * object with the raw measurements; perfbench/run.py turns it into
 * the reported metrics.
 *
 *   perfbench --workload offline|serve|fleet|plan --seed N
 *             --seconds S --trace 0|1
 *
 * Untraced runs (--trace 0) time each unit's calls into the
 * simulator. Traced runs (--trace 1) alternate an untraced pass with
 * a traced pass over the same cells: the traced pass records spans
 * and layer counters, its outputs must equal the untraced pass's, and
 * the ratio of the two passes' host time is the tracing overhead.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "bench.hh"
#include "common/cli.hh"
#include "common/logging.hh"

using namespace perfbench;

namespace {

/** Set-ups per process; the reported set-up time is their median. */
constexpr int kSetupReps = 3;

/** Untraced runs make at least this many passes, even past the time
 * budget, so unit_ms.p90 rests on 100+ units (10+ beyond it) on every
 * workload; a pass is at most about 9 s, so at 20 s this binds only
 * on a slow machine. */
constexpr int kMinUntracedPasses = 2;

/** Peak resident set of this process (VmHWM), MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/**
 * A fixed piece of reference work (about a millisecond): ordered-map
 * updates, a sort and a floating-point reduction over a few hundred
 * kB, a mix close to the simulator's own. It never changes with the
 * simulator, so its host time, taken between units, measures how fast
 * the machine is running at that moment.
 */
volatile double probeSink = 0.0;

double
probeMs()
{
    static const std::vector<std::uint32_t> keys = [] {
        std::vector<std::uint32_t> k(4096);
        std::uint32_t x = 12345;
        for (auto &v : k) {
            x = x * 1664525u + 1013904223u;
            v = x >> 8;
        }
        return k;
    }();
    double ms = 0.0;
    probeSink = timed(ms, [&] {
        std::map<std::uint32_t, std::uint32_t> m;
        for (std::uint32_t k : keys)
            m[k % 2048] += k;
        std::vector<std::uint32_t> v(keys);
        std::sort(v.begin(), v.end());
        double acc = 0.0;
        for (const auto &[k, x] : m)
            acc += std::sqrt(static_cast<double>(x) + k);
        return acc + v[v.size() / 2];
    });
    return ms;
}

/** Output-check state of one cell across the run. */
struct CellCheck
{
    std::uint64_t digest = 0;
    bool seen = false;
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
};

class Checker
{
  public:
    explicit Checker(const Workload &w) : w_(w), cells_(w.cellCount()) {}

    /** Record unit @p u of cell @p i: it fails on its own invariants
     * or when its digest differs from the cell's first digest in this
     * run (every unit of a cell must compute the same report). */
    void
    record(std::size_t i, const UnitResult &u, const char *what)
    {
        CellCheck &c = cells_[i];
        ++c.units;
        std::string why = u.failure;
        if (!c.seen) {
            c.digest = u.digest;
            c.seen = true;
        } else if (u.digest != c.digest && why.empty()) {
            why = std::string(what) + " output differs from the cell's "
                                      "first unit";
        }
        if (!why.empty()) {
            ++c.failed;
            if (reasons_.insert(w_.cellName(i) + ": " + why).second)
                std::fprintf(stderr, "[perfbench] FAIL %s: %s\n",
                             w_.cellName(i).c_str(), why.c_str());
        }
    }

    void
    printJson(std::FILE *out) const
    {
        std::fprintf(out, "\"cells\": [");
        for (std::size_t i = 0; i < cells_.size(); ++i)
            std::fprintf(out,
                         "%s{\"name\": \"%s\", \"digest\": \"%016llx\", "
                         "\"units\": %llu, \"failed\": %llu}",
                         i ? ", " : "", w_.cellName(i).c_str(),
                         static_cast<unsigned long long>(cells_[i].digest),
                         static_cast<unsigned long long>(cells_[i].units),
                         static_cast<unsigned long long>(cells_[i].failed));
        std::fprintf(out, "]");
    }

  private:
    const Workload &w_;
    std::vector<CellCheck> cells_;
    std::set<std::string> reasons_;
};

void
printList(std::FILE *out, const char *key, const std::vector<double> &v)
{
    std::fprintf(out, "\"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::fprintf(out, "%s%.17g", i ? ", " : "", v[i]);
    std::fprintf(out, "]");
}

/** hits / lookups for each cache counted in the ledger. */
void
addHitRatios(Ledger &ledger)
{
    const char *const caches[][3] = {
        {"costmodel.mapper.hits", "costmodel.mapper.lookups",
         "costmodel.mapper.hit_ratio"},
        {"kernels.store.hits", "kernels.store.lookups",
         "kernels.store.hit_ratio"},
        {"core.engine.exec_hits", "core.engine.exec_lookups",
         "core.engine.exec_hit_ratio"},
    };
    for (const auto &[hits, lookups, ratio] : caches) {
        const double n = ledger[lookups];
        ledger[ratio] = n > 0 ? ledger[hits] / n : 0.0;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const adyna::CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool traced = args.getInt("trace", 0) != 0;
    if (seconds <= 0.0)
        ADYNA_FATAL("--seconds must be positive");

    // ---- set-up, repeated: the median is the reported set-up time --
    // A probe before and after every timed step lets run.py express
    // each step's host time at a reference machine speed.
    std::vector<double> setupS, setupProbeMs;
    std::unique_ptr<Workload> w;
    for (int r = 0; r < kSetupReps; ++r) {
        w.reset();
        setupProbeMs.push_back(probeMs());
        double ms = 0.0;
        w = timed(ms, [&] { return makeWorkload(name, seed); });
        setupS.push_back(ms * 1e-3);
    }
    setupProbeMs.push_back(probeMs());

    // ---- measured passes --------------------------------------------
    Checker check(*w);
    std::vector<double> unitMs, probeMsList;
    double simBatches = 0.0, simRequests = 0.0, plans = 0.0;
    Tracer tracer;
    Ledger ledger;
    double tracedMs = 0.0, untracedMs = 0.0;
    std::vector<UnitResult> untracedPass(w->cellCount());
    int passes = 0;
    const std::int64_t t0 = nowNs();
    for (;;) {
        const std::int64_t p0 = nowNs();
        for (std::size_t i = 0; i < w->cellCount(); ++i) {
            probeMsList.push_back(probeMs());
            const UnitResult u = w->run(i);
            check.record(i, u, "untraced");
            unitMs.push_back(u.hostMs);
            untracedMs += u.hostMs;
            simBatches += u.simBatches;
            simRequests += u.simRequests;
            plans += u.plans;
            untracedPass[i] = u;
        }
        if (traced) {
            for (std::size_t i = 0; i < w->cellCount(); ++i) {
                UnitResult u = w->runTraced(i, tracer, ledger);
                if (u.failure.empty() &&
                    u.digest != untracedPass[i].digest)
                    u.failure = "traced unit diverges from the untraced "
                                "unit";
                check.record(i, u, "traced");
                tracedMs += u.hostMs;
            }
        }
        ++passes;
        const double elapsed = static_cast<double>(nowNs() - t0) * 1e-9;
        const double lastPassS = static_cast<double>(nowNs() - p0) * 1e-9;
        if (elapsed + lastPassS > seconds &&
            (traced || passes >= kMinUntracedPasses))
            break;
    }
    probeMsList.push_back(probeMs());
    const double measuredS = static_cast<double>(nowNs() - t0) * 1e-9;

    if (traced) {
        for (auto &[key, value] : ledger)
            value /= passes;
        w->finishLedger(tracer.reduce(), passes, ledger);
        addHitRatios(ledger);
        ledger["tracing.overhead_ratio"] = tracedMs / untracedMs;
    }

    std::FILE *out = stdout;
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, "
                      "\"traced\": %s, \"passes\": %d, "
                      "\"cell_count\": %zu, \"measured_s\": %.17g, ",
                 name.c_str(), static_cast<unsigned long long>(seed),
                 traced ? "true" : "false", passes, w->cellCount(),
                 measuredS);
    printList(out, "setup_s", setupS);
    std::fprintf(out, ", ");
    printList(out, "setup_probe_ms", setupProbeMs);
    std::fprintf(out, ", ");
    printList(out, "unit_ms", unitMs);
    std::fprintf(out, ", ");
    printList(out, "probe_ms", probeMsList);
    std::fprintf(out,
                 ", \"peak_rss_mb\": %.17g, \"sim_batches\": %.17g, "
                 "\"sim_requests\": %.17g, \"plans\": %.17g, ",
                 peakRssMb(), simBatches, simRequests, plans);
    check.printJson(out);
    std::fprintf(out, ", \"layers\": {");
    bool first = true;
    for (const auto &[key, value] : ledger) {
        std::fprintf(out, "%s\"%s\": %.17g", first ? "" : ", ",
                     key.c_str(), value);
        first = false;
    }
    std::fprintf(out, "}}\n");
    return 0;
}
