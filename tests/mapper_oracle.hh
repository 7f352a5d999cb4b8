/**
 * @file
 * Brute-force reference for costmodel::Mapper's kernel-generation
 * search: every candidate split with every loop order, each priced by
 * a full evalKernel(), keeping the first candidate that is strictly
 * better on (feasible, cycles, DRAM spill, SRAM bytes). It shares the
 * candidate set (splitCandidates) with the production search, but
 * none of its pruning: no split is skipped, no cost is reused, and
 * the scratchpad blocking halves one step at a time
 * (linearSpadBlock) where chooseSpadBlock bisects.
 */

#ifndef ADYNA_TESTS_MAPPER_ORACLE_HH
#define ADYNA_TESTS_MAPPER_ORACLE_HH

#include <cstdint>

#include "common/logging.hh"
#include "costmodel/cost.hh"
#include "costmodel/mapper.hh"
#include "costmodel/mapping.hh"
#include "costmodel/tech.hh"
#include "graph/op.hh"

namespace adyna::oracle {

/**
 * costmodel::chooseSpadBlock by step-by-step halving: halve N, then
 * P, then K, re-pricing the footprint after every step, until it fits
 * @p budget or the dims reach 1. Asserts what the bisection relies
 * on: along each dim's whole halving sequence, from where its halving
 * starts down to extent 1, the footprint never increases.
 */
inline graph::LoopDims
linearSpadBlock(const graph::OpNode &op, const graph::LoopDims &per_tile,
                int weight_split, Bytes budget)
{
    using graph::Dim;
    const auto footprint = [&](const graph::LoopDims &block) {
        return costmodel::spadFootprint(op, block, weight_split);
    };
    graph::LoopDims block = per_tile;
    const Dim shrinkOrder[3] = {Dim::N, Dim::P, Dim::K};
    for (Dim d : shrinkOrder) {
        graph::LoopDims probe = block;
        while (probe[d] > 1) {
            const Bytes prev = footprint(probe);
            probe[d] = (probe[d] + 1) / 2;
            ADYNA_ASSERT(footprint(probe) <= prev,
                         "spad footprint grows as dim ",
                         static_cast<int>(d), " halves to ", probe[d],
                         " in ", block.str());
        }
        while (footprint(block) > budget && block[d] > 1)
            block[d] = (block[d] + 1) / 2;
    }
    return block;
}

/** The best mapping of @p op at batch extent @p n on @p tiles tiles,
 * by exhaustive split x loop-order scan. */
inline costmodel::Mapping
exhaustiveMapping(const graph::OpNode &op, std::int64_t n, int tiles,
                  const costmodel::TechParams &tech)
{
    using namespace costmodel;
    using graph::Dim;
    using graph::LoopDims;

    ADYNA_ASSERT(tiles >= 1, "mapping search needs >= 1 tile");
    ADYNA_ASSERT(n >= 1, "mapping search needs n >= 1, got ", n);

    const LoopDims dims = op.dims.with(Dim::N, n);
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(tech.spadBytes) *
        (1.0 - tech.kernelSpadFraction));

    Mapping best;
    bool haveBest = false;
    bool bestFeasible = false;
    KernelCost bestCost;

    for (const auto &splits : splitCandidates(tiles)) {
        for (int o = 0; o < kNumLoopOrders; ++o) {
            Mapping m;
            m.compiledDims = dims;
            m.tiles = tiles;
            m.splits = splits;
            m.order = static_cast<LoopOrder>(o);

            LoopDims perTile = m.perTileDims();
            m.spadBlock = linearSpadBlock(
                op, perTile, m.splitFactor(Dim::K), budget);

            const KernelCost cost =
                evalKernel(op, m, n, /*fitting=*/true, tech);
            const bool feasible = cost.spadFootprint <= budget;

            const auto better = [&]() {
                if (!haveBest)
                    return true;
                if (feasible != bestFeasible)
                    return feasible;
                if (cost.cycles != bestCost.cycles)
                    return cost.cycles < bestCost.cycles;
                if (cost.dramSpillBytes != bestCost.dramSpillBytes)
                    return cost.dramSpillBytes < bestCost.dramSpillBytes;
                return cost.sramBytes < bestCost.sramBytes;
            };
            if (better()) {
                best = m;
                bestCost = cost;
                haveBest = true;
                bestFeasible = feasible;
            }
        }
    }
    ADYNA_ASSERT(haveBest, "mapping search found no candidate");
    return best;
}

} // namespace adyna::oracle

#endif // ADYNA_TESTS_MAPPER_ORACLE_HH
