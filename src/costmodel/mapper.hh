/**
 * @file
 * Kernel generation: search for the best mapping of one operator at
 * one dyn_dim value onto a tile group (Section II-B's "kernel
 * generation" level). The search space is the spatial split of up to
 * two dims across the tiles, the DRAM-level loop order, and the
 * scratchpad blocking; the objective is makespan cycles, then DRAM
 * spills, then SRAM traffic. Feasibility and cycles depend only on
 * the split, so the search prices each split once and evaluates loop
 * orders only for the splits that reach the best (feasible, cycles)
 * pair; the result equals the exhaustive split x order scan.
 * Results are memoized: the scheduler asks for the same
 * (op, value, tiles) triple many times.
 *
 * The memo cache is thread-safe (reader/writer lock), so one Mapper
 * can be shared across the concurrent runs of a bench sweep and the
 * identical exact-kernel searches are performed once per sweep
 * instead of once per System. Search results are deterministic and
 * independent of cache state, so sharing never changes simulation
 * outputs; only the hit/miss counters depend on the interleaving.
 */

#ifndef ADYNA_COSTMODEL_MAPPER_HH
#define ADYNA_COSTMODEL_MAPPER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <tuple>
#include <vector>

#include "costmodel/cost.hh"
#include "costmodel/mapping.hh"
#include "costmodel/tech.hh"
#include "graph/op.hh"

namespace adyna::costmodel {

/**
 * Candidate spatial splits of a @p tiles-tile group over {N, K, P}:
 * the empty split for one tile, else each dim split @p tiles ways,
 * then every ordered pair of distinct dims split a x b ways with
 * a * b == tiles and a, b > 1.
 */
std::vector<std::vector<SpatialSplit>> splitCandidates(int tiles);

/**
 * Largest scratchpad blocking of @p per_tile that fits @p budget
 * (spadFootprint() with weights split @p weight_split ways): start
 * from the full per-tile extents and halve N, then P, then K until
 * the footprint fits or the dims reach 1. Each dim's stopping point
 * is found by bisection over its halving sequence, along which the
 * footprint never increases.
 */
graph::LoopDims chooseSpadBlock(const graph::OpNode &op,
                                const graph::LoopDims &per_tile,
                                int weight_split, Bytes budget);

/** Memoizing mapping search engine. */
class Mapper
{
  public:
    explicit Mapper(TechParams tech);

    /**
     * Best mapping for @p op executed at batch extent @p n on
     * @p tiles tiles: feasible (scratchpad-fitting) mappings first,
     * then fewest cycles, then least DRAM spill, then least SRAM
     * traffic; ties go to the first candidate in split-major,
     * loop-order-minor sequence. If no mapping fits (oversized
     * weights), the same cycles / spill / SRAM order picks among the
     * infeasible ones and the caller must stream weights.
     */
    Mapping search(const graph::OpNode &op, std::int64_t n, int tiles);

    /** Convenience: mapping and its cost at the compiled value. */
    std::pair<Mapping, KernelCost>
    searchWithCost(const graph::OpNode &op, std::int64_t n, int tiles);

    const TechParams &tech() const { return tech_; }

    /** Cache statistics (monotone; safe to read concurrently). */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

  private:
    using Key = std::tuple<std::array<std::int64_t, graph::kNumDims>,
                           int, int, std::int64_t, int>;

    Mapping searchUncached(const graph::OpNode &op, std::int64_t n,
                           int tiles) const;

    TechParams tech_;
    mutable std::shared_mutex mutex_;
    std::map<Key, Mapping> cache_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
};

} // namespace adyna::costmodel

#endif // ADYNA_COSTMODEL_MAPPER_HH
