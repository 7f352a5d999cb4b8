#include "costmodel/mapper.hh"

#include <algorithm>
#include <array>
#include <mutex>
#include <vector>

#include "common/logging.hh"

namespace adyna::costmodel {

using graph::Dim;
using graph::LoopDims;

namespace {

constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Factor pairs (a, b) with a * b == t, a <= b included both ways. */
std::vector<std::pair<int, int>>
factorPairs(int t)
{
    std::vector<std::pair<int, int>> out;
    for (int a = 1; a * a <= t; ++a) {
        if (t % a != 0)
            continue;
        const int b = t / a;
        out.emplace_back(a, b);
        if (a != b)
            out.emplace_back(b, a);
    }
    return out;
}

} // namespace

std::vector<std::vector<SpatialSplit>>
splitCandidates(int tiles)
{
    const Dim spatialDims[3] = {Dim::N, Dim::K, Dim::P};
    std::vector<std::vector<SpatialSplit>> out;
    if (tiles == 1) {
        out.push_back({});
        return out;
    }
    for (Dim d : spatialDims)
        out.push_back({SpatialSplit{d, tiles}});
    for (Dim d1 : spatialDims) {
        for (Dim d2 : spatialDims) {
            if (d1 == d2)
                continue;
            for (const auto &[a, b] : factorPairs(tiles)) {
                if (a == 1 || b == 1)
                    continue; // covered by the 1D cases
                out.push_back(
                    {SpatialSplit{d1, a}, SpatialSplit{d2, b}});
            }
        }
    }
    return out;
}

LoopDims
chooseSpadBlock(const graph::OpNode &op, const LoopDims &per_tile,
                int weight_split, Bytes budget)
{
    // Block bytes never decrease as an extent grows, so the footprint
    // never increases along a dim's halving sequence and "fits" turns
    // true at most once along it. Bisecting for the first fitting
    // step (or the last, extent 1) stops where halving one step at a
    // time would.
    LoopDims block = per_tile;
    const auto fits = [&] {
        return spadFootprint(op, block, weight_split) <= budget;
    };
    if (fits())
        return block;
    const Dim shrinkOrder[3] = {Dim::N, Dim::P, Dim::K};
    std::array<std::int64_t, 64> halved;
    for (Dim d : shrinkOrder) {
        // The extents after each halving step, down to 1.
        std::size_t steps = 0;
        for (std::int64_t e = block[d]; e > 1; e = ceilDiv(e, 2))
            halved[steps++] = ceilDiv(e, 2);
        if (steps == 0)
            continue;
        std::size_t lo = 0;
        std::size_t hi = steps - 1;
        bool fitsAtHi = false;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            block[d] = halved[mid];
            if (fits()) {
                hi = mid;
                fitsAtHi = true;
            } else {
                lo = mid + 1;
            }
        }
        block[d] = halved[lo];
        if (fitsAtHi || fits())
            return block;
    }
    return block;
}

Mapper::Mapper(TechParams tech) : tech_(tech) {}

Mapping
Mapper::search(const graph::OpNode &op, std::int64_t n, int tiles)
{
    Key key{op.dims.ext, op.stride, op.dtypeBytes, n, tiles};
    // The N extent in the key is superseded by the compiled value.
    std::get<0>(key)[0] = 0;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    // Search outside the lock: concurrent racers may duplicate the
    // work for one key, but results are identical and emplace keeps
    // the first insertion.
    Mapping m = searchUncached(op, n, tiles);
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        cache_.emplace(std::move(key), m);
    }
    return m;
}

std::pair<Mapping, KernelCost>
Mapper::searchWithCost(const graph::OpNode &op, std::int64_t n, int tiles)
{
    Mapping m = search(op, n, tiles);
    return {m, evalKernel(op, m, n, true, tech_)};
}

Mapping
Mapper::searchUncached(const graph::OpNode &op, std::int64_t n,
                       int tiles) const
{
    ADYNA_ASSERT(tiles >= 1, "mapping search needs >= 1 tile");
    ADYNA_ASSERT(n >= 1, "mapping search needs n >= 1, got ", n);

    const LoopDims dims = op.dims.with(Dim::N, n);
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(tech_.spadBytes) *
        (1.0 - tech_.kernelSpadFraction));

    // Pass 1: block and price every split once. Feasibility and
    // cycles do not depend on the loop order, so this finds the best
    // (feasible, cycles) rank any candidate can reach.
    struct Priced
    {
        Mapping m;
        KernelShape shape;
        bool feasible;
    };
    const auto rank = [](const Priced &p) {
        return std::pair<bool, Cycles>{!p.feasible, p.shape.cycles};
    };
    std::vector<std::vector<SpatialSplit>> candidates =
        splitCandidates(tiles);
    std::vector<Priced> priced;
    priced.reserve(candidates.size());
    for (auto &splits : candidates) {
        Priced p;
        p.m.compiledDims = dims;
        p.m.tiles = tiles;
        p.m.splits = std::move(splits);
        p.m.spadBlock = chooseSpadBlock(op, p.m.perTileDims(),
                                        p.m.splitFactor(Dim::K), budget);
        p.shape = kernelShape(op, p.m, n, /*fitting=*/true, tech_);
        p.feasible = p.shape.spadFootprint <= budget;
        priced.push_back(std::move(p));
    }
    std::pair<bool, Cycles> bestRank = rank(priced.front());
    for (const Priced &p : priced)
        bestRank = std::min(bestRank, rank(p));

    // Pass 2: the first strict minimum over (feasible, cycles, DRAM
    // spill, SRAM bytes) in split-major, order-minor sequence. Only
    // splits at the best rank can hold it, and among them the same
    // comparator visits the same candidates in the same order.
    Mapping best;
    bool haveBest = false;
    bool bestFeasible = false;
    KernelCost bestCost;

    for (Priced &p : priced) {
        if (rank(p) > bestRank)
            continue;
        for (int o = 0; o < kNumLoopOrders; ++o) {
            p.m.order = static_cast<LoopOrder>(o);
            const KernelCost cost = kernelCost(op, p.m, p.shape, tech_);
            const bool feasible = p.feasible;

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
                best = p.m;
                bestCost = cost;
                haveBest = true;
                bestFeasible = feasible;
            }
        }
    }
    ADYNA_ASSERT(haveBest, "mapping search found no candidate");
    return best;
}

} // namespace adyna::costmodel
