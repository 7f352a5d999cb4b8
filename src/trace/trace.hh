/**
 * @file
 * Dynamism trace generation.
 *
 * This library substitutes for running trained DynNN checkpoints on
 * real datasets (ImageNet / GLUE): it produces, per batch, the
 * routing decisions at every switch operator of a DynGraph. Each
 * sample carries a latent difficulty drawn from a (possibly
 * drifting) Beta distribution; gate policies translate difficulty
 * into exit / skip / expert / channel / patch decisions, which gives
 * the cross-gate correlation (easy samples exit earlier and skip
 * more) and the batch-to-batch variance that the paper's scheduling
 * techniques exploit. See DESIGN.md, substitutions.
 */

#ifndef ADYNA_TRACE_TRACE_HH
#define ADYNA_TRACE_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "graph/dyngraph.hh"

namespace adyna::trace {

/** Routing outcome of one switch for one batch. */
struct SwitchOutcome
{
    /** Samples routed to each branch (MoE top-k counts each sample
     * once per activated expert, so the sum can exceed the input). */
    std::vector<std::int64_t> branchCounts;

    /** Samples still active after the switch region (exits and
     * dropped patches removed). */
    std::int64_t activeAfter = 0;

    /** Samples that reached the switch. */
    std::int64_t activeBefore = 0;
};

/** Routing decisions of one batch across all switches. */
struct BatchRouting
{
    /** Outcome per switch op id. */
    std::map<OpId, SwitchOutcome> outcomes;

    /**
     * The dyn_dim (batch) value a given dynamic operator observes in
     * this batch: branch ops see their branch count, post-merge ops
     * see the active-after count. Static ops see their full extent.
     */
    std::int64_t dynValue(const graph::DynGraph &dg, OpId op) const;
};

/**
 * Sum the per-switch outcomes of several routings: the routing the
 * concatenated batch would observe (branch counts, active-before and
 * active-after add up sample-wise). All parts must cover the same
 * switch set — routings of the same graph; used by the serving
 * batcher to merge single-request draws into one engine batch.
 */
BatchRouting mergeRoutings(const std::vector<const BatchRouting *> &parts);

/**
 * Total dynamic load of one routing: the sum of dynValue over the
 * graph's dynamic operators. The serving runtimes record this exact
 * series into their drift monitors, and the pod router uses it as a
 * request's routing signature for schedule-affinity dispatch — the
 * same scalar on both sides, so "route to the chip whose installed
 * expectations match" compares like with like.
 */
std::int64_t totalDynLoad(const graph::DynGraph &dg,
                          const BatchRouting &routing);

/**
 * The totals Rng::categorical sums for the first two top-k draws of
 * a unit: returns the index-order sum of @p weights (all must be
 * non-negative) and sets @p total_without[z] to the index-order sum
 * with 0.0 at z (the second draw's total once expert z is chosen),
 * both bit for bit as categorical re-sums them.
 */
double topKDrawTotals(const std::vector<double> &weights,
                      std::vector<double> &total_without);

/**
 * Thresholds of Rng::categorical's `draw -= w[i]` walk over
 * @p weights (all non-negative): sets @p thresholds[i] to the
 * smallest non-negative double whose walk is still >= 0 after step i,
 * or +inf if no finite one is. Rounded subtraction is monotone, so
 * the walk from any draw x >= 0 passes step i exactly when
 * x >= thresholds[i], and it returns walkIndex(thresholds, x).
 * @p thresholds must have the size of @p weights.
 */
void walkThresholds(std::span<const double> weights,
                    std::span<double> thresholds);

/**
 * The index categorical's walk returns from draw @p x >= 0: the
 * number of steps it passes (a branch-free count over the
 * walkThresholds() table), capped at the last index, where the walk
 * falls through.
 */
inline std::size_t
walkIndex(std::span<const double> thresholds, double x)
{
    std::size_t passed = 0;
    for (double t : thresholds)
        passed += x >= t ? 1 : 0;
    return std::min(passed, thresholds.size() - 1);
}

/** Parameters of the synthetic dynamism model. */
struct TraceConfig
{
    /** Samples per batch (images / sequences, before patch folding). */
    std::int64_t batchSize = 128;

    /** Beta(alpha, beta) parameters of the sample difficulty prior. */
    double difficultyAlpha = 2.0;
    double difficultyBeta = 2.0;

    /** Per-gate observation noise on difficulty (std dev). */
    double gateNoise = 0.08;

    /**
     * Strength of non-stationary drift in [0, 1]: each phase rescales
     * the gate marginals and redraws expert popularity. 0 disables
     * drift (stationary distribution). Serving-time distribution
     * shift is the premise of the paper's periodic re-sampling
     * (Section VII, citing Brainstorm/FasterMoE observations).
     */
    double driftStrength = 0.30;

    /** Batches per drift phase. */
    int driftPeriod = 120;

    /** Per-sample probability of an off-ranking channel pick
     * (ChannelBlocks): tail blocks otherwise activate only for the
     * hardest samples, producing the rarely-executed branches that
     * motivate branch grouping. */
    double channelSwapProb = 0.002;

    /** Relative std dev of the per-image kept-patch count. */
    double patchSpread = 0.5;
};

/**
 * Generates routing decisions batch by batch for one DynGraph.
 * Deterministic given (graph, config, seed).
 */
class TraceGenerator
{
  public:
    TraceGenerator(const graph::DynGraph &dg, TraceConfig cfg,
                   std::uint64_t seed);

    /** Produce the routing for the next batch. */
    BatchRouting next();

    /** Number of batches generated so far. */
    std::uint64_t batchesGenerated() const { return batches_; }

    /** Top-k draw tables built so far: one per (switch, weight
     * vector), so once per switch and drift phase. */
    std::uint64_t topKTableBuilds() const { return topKTableBuilds_; }

    const TraceConfig &config() const { return cfg_; }

    /**
     * Convenience: generate @p batches batches on an independent
     * probe stream (the main stream is not disturbed) and return the
     * empirical dyn-value expectation per dynamic op (used for
     * offline profiling in tests and in Adyna's initial schedule).
     */
    std::map<OpId, double> profileExpectations(int batches) const;

    /** Latent per-sample state during one batch's routing. */
    struct Sample
    {
        double difficulty = 0.5;
        bool active = true;
        /** Batch rows this sample currently occupies (changed by a
         * patch-select gate: kept patches per image). */
        std::int64_t rows = 1;
    };

  private:
    /** Difficulty draw under the current drift phase. */
    double drawDifficulty();

    /** Advance drift phase state if the period elapsed. */
    void maybeAdvancePhase();

    /** Gate marginal under the current drift phase. */
    double phaseFraction(double base) const;

    /** Draw tables of one top-k switch (see drawTopKPerUnit). */
    struct TopKTable
    {
        /** The weights the table was built from: its cache key. */
        std::vector<double> weights;
        /** First-draw total (topKDrawTotals). */
        double total = 0.0;
        /** Second-draw total per first-draw expert z. */
        std::vector<double> totalWithout;
        /** n x (n + 1) walk thresholds: row 0 for the first draw,
         * row 1 + z for the second draw with 0.0 at expert z. */
        std::vector<double> thresholds;
    };

    /** Route switch @p sw, the @p index-th of dg_.switches(). */
    void routeSwitch(const graph::SwitchInfo &sw, std::size_t index,
                     SwitchOutcome &oc);

    /** Make @p table describe weights_, rebuilding it if it was built
     * from other weights. */
    void refreshTopKTable(TopKTable &table);

    /** Route @p units units (tokens) each to topK distinct experts
     * by exact per-unit categorical draws over weights_, through
     * @p table. */
    void drawTopKPerUnit(std::int64_t units, int topK, TopKTable &table,
                         SwitchOutcome &oc);

    const graph::DynGraph &dg_;
    TraceConfig cfg_;
    Rng rng_;
    std::uint64_t seed_;
    std::uint64_t batches_ = 0;

    // Drift phase state.
    double phaseScale_ = 1.0;
    /** Expert popularity tilt per expert count, drawn the first time
     * a switch with that count routes in a phase (empty until then;
     * cleared, keeping capacity, when a phase begins). Switches with
     * the same count share one tilt. */
    std::vector<std::vector<double>> expertTilts_;

    /** Top-k draw tables, one per switch (indexed like
     * dg_.switches()); rebuilt when the switch's weights change. */
    std::vector<TopKTable> topKTables_;
    std::uint64_t topKTableBuilds_ = 0;

    // Per-batch scratch, reused so a warm next() allocates only the
    // BatchRouting it returns.
    std::vector<Sample> samples_;
    /** Indices of the samples active at the current switch. */
    std::vector<std::size_t> active_;
    /** (difficulty + gate jitter, sample index) per active sample. */
    std::vector<std::pair<double, std::size_t>> ranked_;
    /** Expert weights of the current top-k switch. */
    std::vector<double> weights_;
    /** weights_ with the unit's chosen experts zeroed. */
    std::vector<double> unitWeights_;
    /** Experts chosen for the current unit. */
    std::vector<std::size_t> chosen_;
};

} // namespace adyna::trace

#endif // ADYNA_TRACE_TRACE_HH
