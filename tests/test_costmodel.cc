/**
 * @file
 * Unit tests for the dataflow cost model: the blocked-reuse traffic
 * formulas against hand-computed GEMM cases, compute-cycle ceilings,
 * kernel fitting semantics, mapper search quality and its agreement
 * with the exhaustive reference search, and the Table IV area/power
 * budget.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.hh"
#include "costmodel/area.hh"
#include "costmodel/cost.hh"
#include "costmodel/mapper.hh"
#include "graph/op.hh"
#include "mapper_oracle.hh"
#include "models/models.hh"

namespace {

using namespace adyna;
using namespace adyna::costmodel;
using namespace adyna::graph;

TechParams
tech()
{
    return TechParams{};
}

OpNode
matmulOp(std::int64_t n, std::int64_t k, std::int64_t c)
{
    OpNode op;
    op.kind = OpKind::MatMul;
    op.name = "mm";
    op.dims = LoopDims::matmul(n, k, c);
    return op;
}

OpNode
convOp(std::int64_t n, std::int64_t k, std::int64_t c, std::int64_t p,
       std::int64_t q, std::int64_t r, std::int64_t s, int stride = 1)
{
    OpNode op;
    op.kind = OpKind::Conv2d;
    op.name = "conv";
    op.dims = LoopDims::conv(n, k, c, p, q, r, s);
    op.stride = stride;
    return op;
}

// ----------------------------------------------------- blockedTraffic

TEST(BlockedTraffic, GemmNOuterReloadsWeightsPerNBlock)
{
    // N=4 blocks of 16, K=1 block, C=1 block. Order N,K,C: weights
    // are re-fetched for every N block.
    const auto dims = LoopDims::matmul(64, 128, 256);
    auto block = LoopDims::matmul(16, 128, 256);
    const auto t = blockedTraffic(dims, block, LoopOrder::NOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{4} * 128 * 256 * 2);
    EXPECT_EQ(t.inputs, Bytes{64} * 256 * 2);       // one pass
    EXPECT_EQ(t.outputWrites, Bytes{64} * 128 * 2); // one pass
    EXPECT_EQ(t.outputReads, 0u);
}

TEST(BlockedTraffic, GemmKOuterReloadsInputsPerKBlock)
{
    const auto dims = LoopDims::matmul(64, 128, 256);
    auto block = LoopDims::matmul(64, 32, 256); // K in 4 blocks
    const auto t = blockedTraffic(dims, block, LoopOrder::KOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{128} * 256 * 2); // one pass
    EXPECT_EQ(t.inputs, Bytes{4} * 64 * 256 * 2);
    EXPECT_EQ(t.outputWrites, Bytes{64} * 128 * 2);
    EXPECT_EQ(t.outputReads, 0u);
}

TEST(BlockedTraffic, GemmCOuterSpillsPartialSums)
{
    const auto dims = LoopDims::matmul(64, 128, 256);
    auto block = LoopDims::matmul(64, 128, 64); // C in 4 blocks
    const auto t = blockedTraffic(dims, block, LoopOrder::COuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{128} * 256 * 2);
    EXPECT_EQ(t.inputs, Bytes{64} * 256 * 2);
    // Output block resident per C iteration: written 4x, read 3x.
    EXPECT_EQ(t.outputWrites, Bytes{4} * 64 * 128 * 2);
    EXPECT_EQ(t.outputReads, Bytes{3} * 64 * 128 * 2);
}

TEST(BlockedTraffic, WholeTensorBlocksAreSinglePass)
{
    const auto dims = LoopDims::matmul(64, 128, 256);
    const auto t = blockedTraffic(dims, dims, LoopOrder::NOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{128} * 256 * 2);
    EXPECT_EQ(t.inputs, Bytes{64} * 256 * 2);
    EXPECT_EQ(t.outputWrites, Bytes{64} * 128 * 2);
    EXPECT_EQ(t.outputReads, 0u);
}

TEST(BlockedTraffic, ConvHaloIncludedInInputBlocks)
{
    // One output-row block of height 4 at stride 1 with R=3 needs 6
    // input rows.
    const auto dims = LoopDims::conv(1, 1, 1, 8, 8, 3, 3);
    auto block = LoopDims::conv(1, 1, 1, 4, 8, 3, 3);
    const auto t = blockedTraffic(dims, block, LoopOrder::NOuter, 1, 2);
    // 2 P-blocks, each (4-1)*1+3 = 6 rows x (8-1)+3 = 10 cols.
    EXPECT_EQ(t.inputs, Bytes{2} * 6 * 10 * 2);
}

TEST(BlockedTraffic, OversizedBlocksClampToDims)
{
    const auto dims = LoopDims::matmul(8, 8, 8);
    auto block = LoopDims::matmul(64, 64, 64);
    const auto t = blockedTraffic(dims, block, LoopOrder::NOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{8} * 8 * 2);
}

// ---------------------------------------------------------- evalKernel

Mapping
simpleMapping(const OpNode &op, std::int64_t n, int tiles,
              std::vector<SpatialSplit> splits)
{
    Mapping m;
    m.compiledDims = op.dims.with(Dim::N, n);
    m.tiles = tiles;
    m.splits = std::move(splits);
    m.spadBlock = m.perTileDims();
    m.order = LoopOrder::NOuter;
    return m;
}

TEST(EvalKernel, CyclesMatchArrayThroughputOnPerfectShapes)
{
    // 32x32 array, K=64 -> 2 lanes, C=32 -> 1 lane, N=128.
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m = simpleMapping(op, 128, 1, {});
    const auto c = evalKernel(op, m, 128, true, tech());
    EXPECT_EQ(c.cycles, Cycles{128} * 2 * 1);
    EXPECT_EQ(c.usefulMacs, MacCount{128} * 64 * 32);
    EXPECT_EQ(c.issuedMacs, c.usefulMacs);
}

TEST(EvalKernel, CeilPenaltyForRaggedArrayShapes)
{
    // K=33 needs 2 row lanes even though only 1/32 of one is used.
    const OpNode op = matmulOp(16, 33, 32);
    const Mapping m = simpleMapping(op, 16, 1, {});
    const auto c = evalKernel(op, m, 16, true, tech());
    EXPECT_EQ(c.cycles, Cycles{16} * 2);
}

TEST(EvalKernel, NSplitDividesWorkAcrossTiles)
{
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m =
        simpleMapping(op, 128, 4, {SpatialSplit{Dim::N, 4}});
    const auto c = evalKernel(op, m, 128, true, tech());
    // Per tile: N=32, 2 K-lanes.
    EXPECT_EQ(c.cycles, Cycles{32} * 2);
}

TEST(EvalKernel, FittingClampsToActualValue)
{
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m = simpleMapping(op, 128, 1, {});
    const auto fit = evalKernel(op, m, 40, true, tech());
    const auto unfit = evalKernel(op, m, 40, false, tech());
    EXPECT_EQ(fit.cycles, Cycles{40} * 2);
    EXPECT_EQ(unfit.cycles, Cycles{128} * 2);
    EXPECT_EQ(fit.usefulMacs, unfit.usefulMacs);
    EXPECT_LT(fit.issuedMacs, unfit.issuedMacs);
    EXPECT_LT(fit.computeEnergyPj, unfit.computeEnergyPj);
}

TEST(EvalKernel, FittingWithNSplitLosesParallelism)
{
    // Kernel compiled for 128 over 8 tiles: chunks of 16. At actual
    // 20, tile 0 still processes 16 rows (makespan), while a kernel
    // compiled for 20 would use chunks of 3.
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping big =
        simpleMapping(op, 128, 8, {SpatialSplit{Dim::N, 8}});
    const auto mismatched = evalKernel(op, big, 20, true, tech());

    OpNode op20 = op;
    const Mapping right =
        simpleMapping(op20, 20, 8, {SpatialSplit{Dim::N, 8}});
    const auto matched = evalKernel(op20, right, 20, true, tech());
    EXPECT_GT(mismatched.cycles, matched.cycles);
    EXPECT_EQ(mismatched.cycles, Cycles{16} * 2);
    EXPECT_EQ(matched.cycles, Cycles{3} * 2);
}

TEST(EvalKernel, ZeroActualWithFittingIsFree)
{
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m = simpleMapping(op, 128, 1, {});
    const auto c = evalKernel(op, m, 0, true, tech());
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.usefulMacs, 0u);
}

TEST(EvalKernel, SpadFootprintCountsWeightsAndDoubleBuffers)
{
    const OpNode op = matmulOp(16, 64, 64);
    const Mapping m = simpleMapping(op, 16, 1, {});
    const auto c = evalKernel(op, m, 16, true, tech());
    const Bytes weights = Bytes{64} * 64 * 2;
    const Bytes in = Bytes{16} * 64 * 2;
    const Bytes out = Bytes{16} * 64 * 2;
    EXPECT_EQ(c.spadFootprint, weights + 2 * (in + out));
}

TEST(EvalKernel, KSplitPartitionsWeights)
{
    const OpNode op = matmulOp(16, 64, 64);
    const Mapping m =
        simpleMapping(op, 16, 4, {SpatialSplit{Dim::K, 4}});
    const auto c = evalKernel(op, m, 16, true, tech());
    // Per-tile weights = K/4 x C.
    EXPECT_LT(c.spadFootprint, Bytes{64} * 64 * 2);
}

TEST(EvalKernel, VectorOpCycles)
{
    EXPECT_EQ(vectorOpCycles(1024, 1, tech()), 1u);
    EXPECT_EQ(vectorOpCycles(1025, 1, tech()), 2u);
    EXPECT_EQ(vectorOpCycles(2048, 2, tech()), 1u);
}

// -------------------------------------------------------------- Mapper

TEST(Mapper, PrefersSplitsThatDivideEvenly)
{
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 2048, 512);
    const auto [m, c] = mapper.searchWithCost(op, 128, 4);
    // K-split by 4: per-tile K = 512 -> 16 lanes; N-split gives
    // per-tile N = 32 with 64 K lanes: both 32*... evaluate: any
    // valid mapping must beat the unsplit cycle count / 1.
    const Mapping unsplit = simpleMapping(op, 128, 1, {});
    const auto cu = evalKernel(op, unsplit, 128, true, tech());
    EXPECT_LE(c.cycles * 4, cu.cycles + 4); // near-linear speedup
    EXPECT_EQ(m.tiles, 4);
}

TEST(Mapper, FeasibleMappingFitsScratchpad)
{
    Mapper mapper(tech());
    // Weights 2 MB: must split K across tiles to fit 512 kB spads.
    const OpNode op = matmulOp(64, 1024, 1024);
    const auto [m, c] = mapper.searchWithCost(op, 64, 8);
    EXPECT_LE(c.spadFootprint,
              static_cast<Bytes>(0.95 * 512 * 1024));
    EXPECT_GT(m.splitFactor(Dim::K), 1);
}

TEST(Mapper, CacheHitsOnRepeatedQueries)
{
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 256, 256);
    (void)mapper.search(op, 64, 4);
    const auto before = mapper.hits();
    (void)mapper.search(op, 64, 4);
    EXPECT_EQ(mapper.hits(), before + 1);
}

TEST(Mapper, MemoKeyIgnoresBatchExtent)
{
    // The memo key zeroes the N extent: the searched value overrides
    // the batch size, so ops differing only in N share one entry.
    Mapper mapper(tech());
    (void)mapper.search(matmulOp(128, 256, 256), 64, 4);
    const auto before = mapper.hits();
    (void)mapper.search(matmulOp(512, 256, 256), 64, 4);
    EXPECT_EQ(mapper.hits(), before + 1);
    EXPECT_EQ(mapper.misses(), 1u);
}

TEST(Mapper, MemoKeyDistinguishesStrideAndDtype)
{
    // Stride and dtype change the mapping search (halo traffic,
    // scratchpad footprint), so each must get its own memo entry.
    Mapper mapper(tech());
    (void)mapper.search(convOp(8, 64, 64, 28, 28, 3, 3, 1), 8, 4);
    (void)mapper.search(convOp(8, 64, 64, 28, 28, 3, 3, 2), 8, 4);
    EXPECT_EQ(mapper.hits(), 0u);
    EXPECT_EQ(mapper.misses(), 2u);

    OpNode fp32 = matmulOp(128, 256, 256);
    fp32.dtypeBytes = 4;
    (void)mapper.search(matmulOp(128, 256, 256), 64, 4);
    (void)mapper.search(fp32, 64, 4);
    EXPECT_EQ(mapper.hits(), 0u);
    EXPECT_EQ(mapper.misses(), 4u);
}

TEST(Mapper, DifferentValuesAreDifferentKernels)
{
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 256, 256);
    const Mapping a = mapper.search(op, 128, 4);
    const Mapping b = mapper.search(op, 16, 4);
    EXPECT_EQ(a.compiledDims.n(), 128);
    EXPECT_EQ(b.compiledDims.n(), 16);
}

TEST(Mapper, ConvMappingHandlesStride)
{
    Mapper mapper(tech());
    const OpNode op = convOp(8, 64, 64, 28, 28, 3, 3, 2);
    const auto [m, c] = mapper.searchWithCost(op, 8, 9);
    EXPECT_GT(c.cycles, 0u);
    EXPECT_GT(c.usefulMacs, 0u);
    EXPECT_EQ(m.tiles, 9);
}

/** Searched mapping and cost equal the exhaustive oracle's for @p op
 * at every (n, tiles) pair. */
void
expectSearchMatchesOracle(const OpNode &op,
                          const std::vector<std::int64_t> &values,
                          const std::vector<int> &tile_counts)
{
    // A fresh mapper per op: the memo key leaves out the op kind, so
    // a shared one could answer a vector op with a compute op's entry.
    Mapper mapper(tech());
    for (std::int64_t n : values) {
        for (int tiles : tile_counts) {
            const auto [got, cost] = mapper.searchWithCost(op, n, tiles);
            const Mapping want =
                oracle::exhaustiveMapping(op, n, tiles, tech());
            EXPECT_TRUE(got == want)
                << op.name << " " << op.dims.str() << " stride "
                << op.stride << " n " << n << " tiles " << tiles
                << ":\n  got  " << got.str() << "\n  want " << want.str();
            EXPECT_TRUE(cost == evalKernel(op, want, n, true, tech()))
                << op.name << " n " << n << " tiles " << tiles;
        }
    }
}

const std::vector<std::int64_t> kOracleValues{1, 2, 3, 7, 32, 128};

std::vector<int>
oracleTileCounts()
{
    std::vector<int> out;
    for (int t = 1; t <= 16; ++t)
        out.push_back(t);
    out.push_back(24);
    out.push_back(36);
    return out;
}

/** The oracle's ops: every distinct schedulable op of the five model
 * graphs (ops that differ only in N search identically: n replaces
 * it), then seeded random ops: strided convs, matmuls, vector ops,
 * and weights too large to fit the scratchpad at any split. */
std::vector<OpNode>
oracleOps()
{
    std::vector<OpNode> ops;
    std::set<std::tuple<bool, std::array<std::int64_t, kNumDims>, int,
                        int>>
        seen;
    for (const std::string &name : models::workloadNames()) {
        const models::ModelBundle bundle = models::buildByName(name, 128);
        for (const OpNode &op : bundle.graph.nodes()) {
            if (!isCompute(op.kind) && !isFusable(op.kind))
                continue;
            if (!op.dims.valid())
                continue;
            auto ext = op.dims.ext;
            ext[0] = 0;
            if (!seen.emplace(isCompute(op.kind), ext, op.stride,
                              op.dtypeBytes)
                     .second)
                continue;
            ops.push_back(op);
        }
    }
    EXPECT_GT(seen.size(), 20u);

    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(tech().spadBytes) *
        (1.0 - tech().kernelSpadFraction));
    Rng rng(20250301);
    const OpKind vectorKinds[] = {OpKind::Act, OpKind::Pool,
                                  OpKind::Norm, OpKind::Softmax,
                                  OpKind::Eltwise};
    const std::int64_t filters[] = {1, 3, 5, 7};
    for (int i = 0; i < 48; ++i) {
        OpNode op;
        op.name = "rand" + std::to_string(i);
        op.dtypeBytes = static_cast<int>(1 << rng.uniformInt(0, 2));
        switch (i % 4) {
          case 0: {
            op.kind = OpKind::Conv2d;
            const std::int64_t r = filters[rng.uniformInt(0, 3)];
            op.dims = LoopDims::conv(
                1, rng.uniformInt(1, 512), rng.uniformInt(1, 512),
                rng.uniformInt(1, 64), rng.uniformInt(1, 64), r, r);
            op.stride = static_cast<int>(rng.uniformInt(1, 3));
            break;
          }
          case 1:
            op.kind = OpKind::MatMul;
            op.dims = LoopDims::matmul(1, rng.uniformInt(1, 4096),
                                       rng.uniformInt(1, 4096));
            break;
          case 2:
            op.kind = vectorKinds[rng.uniformInt(0, 4)];
            op.dims = LoopDims::conv(
                1, rng.uniformInt(1, 1024), 1, rng.uniformInt(1, 64),
                rng.uniformInt(1, 64), 1, 1);
            break;
          default:
            // >= 18 MB of weights: over budget even split 36 ways.
            op.kind = rng.bernoulli(0.5) ? OpKind::MatMul
                                         : OpKind::Conv2d;
            op.dtypeBytes = static_cast<int>(2 << rng.uniformInt(0, 1));
            op.dims = op.kind == OpKind::MatMul
                          ? LoopDims::matmul(1, rng.uniformInt(4096, 8192),
                                             rng.uniformInt(4096, 8192))
                          : LoopDims::conv(1, rng.uniformInt(1024, 2048),
                                           rng.uniformInt(1024, 2048),
                                           rng.uniformInt(1, 16),
                                           rng.uniformInt(1, 16), 3, 3);
            op.stride = static_cast<int>(rng.uniformInt(1, 2));
            EXPECT_GT(op.weightBytes() / 36, budget) << op.dims.str();
            break;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

TEST(Mapper, SearchMatchesExhaustiveOracle)
{
    for (const OpNode &op : oracleOps())
        expectSearchMatchesOracle(op, kOracleValues, oracleTileCounts());
}

// The bisected blocking equals step-by-step halving (which asserts
// that the footprint never increases along each halving sequence)
// for every split candidate of every oracle search input.
TEST(Mapper, BisectedSpadBlockMatchesLinearHalving)
{
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(tech().spadBytes) *
        (1.0 - tech().kernelSpadFraction));
    std::size_t inputs = 0;
    for (const OpNode &op : oracleOps()) {
        for (std::int64_t n : kOracleValues) {
            for (int tiles : oracleTileCounts()) {
                ++inputs;
                for (auto &splits : splitCandidates(tiles)) {
                    Mapping m;
                    m.compiledDims = op.dims.with(Dim::N, n);
                    m.tiles = tiles;
                    m.splits = std::move(splits);
                    const LoopDims perTile = m.perTileDims();
                    const int wsplit = m.splitFactor(Dim::K);
                    EXPECT_EQ(chooseSpadBlock(op, perTile, wsplit, budget),
                              oracle::linearSpadBlock(op, perTile, wsplit,
                                                      budget))
                        << op.name << " " << op.dims.str() << " n " << n
                        << " " << m.str();
                }
            }
        }
        if (HasFailure())
            return;
    }
    EXPECT_EQ(inputs, 11232u);
}

TEST(Mapper, InfeasibleEverywherePicksFewestCyclesNotSmallestFootprint)
{
    // 2.25 MB of weights with K = 16: a 4-way K split is the smallest
    // footprint but leaves the 32-row array no fuller, and even it
    // overflows the scratchpad. Among infeasible candidates the
    // search ranks by cycles, then DRAM spill, then SRAM bytes.
    const TechParams t = tech();
    const OpNode op = convOp(64, 16, 8192, 14, 14, 3, 3);
    const int tiles = 4;
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(t.spadBytes) * (1.0 - t.kernelSpadFraction));

    Mapper mapper(t);
    const auto [m, cost] = mapper.searchWithCost(op, 64, tiles);
    EXPECT_GT(cost.spadFootprint, budget);

    Bytes minFootprint = ~Bytes{0};
    for (const auto &splits : splitCandidates(tiles)) {
        for (int o = 0; o < kNumLoopOrders; ++o) {
            Mapping c;
            c.compiledDims = op.dims;
            c.tiles = tiles;
            c.splits = splits;
            c.order = static_cast<LoopOrder>(o);
            c.spadBlock = chooseSpadBlock(op, c.perTileDims(),
                                          c.splitFactor(Dim::K), budget);
            const KernelCost k = evalKernel(op, c, 64, true, t);
            EXPECT_GT(k.spadFootprint, budget) << c.str();
            minFootprint = std::min(minFootprint, k.spadFootprint);
            EXPECT_LE(std::tie(cost.cycles, cost.dramSpillBytes,
                               cost.sramBytes),
                      std::tie(k.cycles, k.dramSpillBytes, k.sramBytes))
                << c.str();
        }
    }
    EXPECT_GT(cost.spadFootprint, minFootprint);
    EXPECT_EQ(m.splitFactor(Dim::K), 1) << m.str();
}

// ---------------------------------------------------------- Table IV

TEST(AreaPower, TileBudgetMatchesTableIV)
{
    const TileBudget b = tileBudget(tech());
    EXPECT_NEAR(b.totalAreaMm2(), 3.567, 0.01);
    EXPECT_NEAR(b.totalPowerMw(), 1416.34, 0.5);
    // DynNN additions (dispatcher/controller + NIC) ~4.9% of area.
    EXPECT_NEAR(b.dynnnAreaFraction(), 0.049, 0.005);
}

TEST(AreaPower, ChipScalesLinearly)
{
    const TileBudget chip = chipBudget(tech(), 144);
    EXPECT_NEAR(chip.totalAreaMm2(), 3.567 * 144, 1.0);
    // ~204 W chip (201 W in the paper at slightly different rounding).
    EXPECT_NEAR(chip.totalPowerMw() / 1000.0, 204.0, 5.0);
}

TEST(AreaPower, BudgetScalesWithArrayAndSpad)
{
    TechParams t2 = tech();
    t2.peRows = 16;
    t2.peCols = 16;
    t2.spadBytes = Bytes{256} << 10;
    const TileBudget b = tileBudget(t2);
    EXPECT_NEAR(b.components[0].areaMm2, 1.981 / 4.0, 1e-6);
    EXPECT_NEAR(b.components[1].areaMm2, 1.413 / 2.0, 1e-6);
}

TEST(TechParams, KernelBudgetMatchesPaper)
{
    const TechParams t = tech();
    EXPECT_EQ(t.kernelSpadBudget(), Bytes{26214});
    EXPECT_EQ(t.maxKernelsPerTile(), 204); // ~200 in the paper
    EXPECT_EQ(t.macsPerCycle(), 1024);
}

} // namespace

namespace {

TEST(ComputeCyclesPerRow, FoldsFilterIntoColumnsForTinyC)
{
    const TechParams t;
    // Stem-like shape: C=3, R=S=7. Plain mapping wastes 29/32
    // columns; folding C*R*S=147 into the columns recovers them.
    const auto d = LoopDims::conv(1, 64, 3, 112, 112, 7, 7);
    const double perRow = computeCyclesPerRow(d, t);
    const double plain = 112.0 * 112 * 7 * 7 * 2 * 1;
    const double foldRS = 112.0 * 112 * 2 * 5; // ceil(147/32) = 5
    EXPECT_DOUBLE_EQ(perRow, foldRS);
    EXPECT_LT(perRow, plain / 4.0);
}

TEST(ComputeCyclesPerRow, NoRegressionOnWideChannels)
{
    const TechParams t;
    // C=64, 3x3: plain = 9 * ceil(64/32) = 18 lane-steps; folding S
    // gives 3 * ceil(192/32) = 18; folding RS gives ceil(576/32) =
    // 18. All equal: folding never hurts aligned shapes.
    const auto d = LoopDims::conv(1, 32, 64, 14, 14, 3, 3);
    EXPECT_DOUBLE_EQ(computeCyclesPerRow(d, t), 14.0 * 14 * 18);
}

TEST(ComputeCyclesPerRow, MatmulUnaffectedByFolding)
{
    const TechParams t;
    const auto d = LoopDims::matmul(1, 768, 768);
    EXPECT_DOUBLE_EQ(computeCyclesPerRow(d, t), 24.0 * 24);
}

TEST(EvalKernel, MultiPassDispatchCoversOversizedValues)
{
    // A kernel compiled for 50 rows executing 120 actual rows via
    // the store's multi-pass dispatch: cost of 3 passes.
    TechParams t;
    OpNode op;
    op.kind = OpKind::MatMul;
    op.name = "mm";
    op.dims = LoopDims::matmul(50, 64, 64);
    Mapping m;
    m.compiledDims = op.dims;
    m.tiles = 1;
    m.spadBlock = op.dims;
    const auto onePass = evalKernel(op, m, 50, true, t);
    const auto partial = evalKernel(op, m, 20, true, t);
    // 2 full passes + 1 partial (engine composes these).
    EXPECT_EQ(2 * onePass.cycles + partial.cycles,
              Cycles{2 * 50 + 20} * 2 * 2);
}

TEST(BlockedTraffic, KOuterWithPinnedWeightsHasNoSpill)
{
    // After the pinned-weight clamp, K-outer blocking with full K/C
    // blocks re-reads nothing: exactly one activation pass.
    TechParams t;
    OpNode op;
    op.kind = OpKind::Conv2d;
    op.dims = LoopDims::conv(32, 128, 128, 28, 28, 3, 3);
    Mapper mapper(t);
    for (int tiles : {1, 4, 12}) {
        const auto [m, cost] = mapper.searchWithCost(op, 32, tiles);
        EXPECT_EQ(cost.dramSpillBytes, 0u) << m.str();
    }
}

} // namespace
