/**
 * @file
 * Brute-force reference for costmodel::Mapper's kernel-generation
 * search: every candidate split with every loop order, each priced by
 * a full evalKernel(), keeping the first candidate that is strictly
 * better on (feasible, cycles, DRAM spill, SRAM bytes). It shares the
 * candidate set (splitCandidates) and the scratchpad blocking
 * (chooseSpadBlock) with the production search, but none of its
 * pruning: no split is skipped and no cost is reused.
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
            m.spadBlock = chooseSpadBlock(
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
