/**
 * @file
 * Unit tests for the architecture substrate: torus NoC routing and
 * contention, HBM channel mapping and gap-filling, chip occupancy
 * accounting, and the hardware profiler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/chip.hh"
#include "arch/hbm.hh"
#include "arch/hwconfig.hh"
#include "arch/noc.hh"
#include "arch/profiler.hh"
#include "common/rng.hh"
#include "des/resource.hh"

namespace {

using namespace adyna;
using namespace adyna::arch;

HwConfig
cfg()
{
    return HwConfig{};
}

// ------------------------------------------------------------ HwConfig

TEST(HwConfig, TableIIIDefaults)
{
    const HwConfig hw = cfg();
    EXPECT_EQ(hw.tiles(), 144);
    // 144 tiles x 1024 MACs x 2 flops at 1 GHz ~ 295 TFLOPS.
    EXPECT_NEAR(hw.peakTflops(), 294.9, 0.5);
    EXPECT_EQ(hw.totalSpad(), Bytes{72} << 20);
    EXPECT_EQ(hw.hbmStacks, 6);
}

TEST(HwConfig, SnakeOrderVisitsAllTilesWithAdjacency)
{
    const HwConfig hw = cfg();
    const auto order = snakeTileOrder(hw);
    ASSERT_EQ(order.size(), 144u);
    std::vector<bool> seen(144, false);
    for (TileId t : order) {
        ASSERT_LT(t, 144u);
        EXPECT_FALSE(seen[t]);
        seen[t] = true;
    }
    // Consecutive entries are grid neighbours.
    for (std::size_t i = 1; i < order.size(); ++i) {
        const int dr = std::abs(hw.tileRow(order[i]) -
                                hw.tileRow(order[i - 1]));
        const int dc = std::abs(hw.tileCol(order[i]) -
                                hw.tileCol(order[i - 1]));
        EXPECT_EQ(dr + dc, 1);
    }
}

// ----------------------------------------------------------------- Noc

TEST(Noc, HopsUseTorusShortcuts)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    // Tile 0 (0,0) to tile 11 (0,11): one hop around the torus.
    EXPECT_EQ(noc.hops(0, 11), 1);
    // (0,0) to (0,6): six hops either way.
    EXPECT_EQ(noc.hops(0, 6), 6);
    // (0,0) to (11,11): 1 + 1 wrap hops.
    EXPECT_EQ(noc.hops(0, 143), 2);
    EXPECT_EQ(noc.hops(5, 5), 0);
}

TEST(Noc, TransferTimeScalesWithBytesAndHops)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    const auto t = noc.transfer(0, 0, 1, 1920); // 1 hop east
    EXPECT_EQ(t.hops, 1);
    // 1920 B at 192 B/cycle = 10 cycles + 1 hop x 2 cycles.
    EXPECT_EQ(t.end, 12u);
    EXPECT_EQ(t.byteHops, 1920u);
}

TEST(Noc, SelfTransferIsFree)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    const auto t = noc.transfer(100, 7, 7, 1 << 20);
    EXPECT_EQ(t.end, 100u);
    EXPECT_EQ(t.byteHops, 0u);
}

TEST(Noc, SharedLinkContends)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    const auto a = noc.transfer(0, 0, 2, 19200); // crosses link 0->1
    const auto b = noc.transfer(0, 0, 1, 19200); // same first link
    EXPECT_GE(b.end, a.start + 100); // queued behind a on link 0-E
}

TEST(Noc, ProbeAckIsRoundTrip)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    EXPECT_EQ(noc.probeAckLatency(0, 6),
              Tick{2} * 6 * hw.nocHopLatency);
}

// ----------------------------------------------------------------- Hbm

TEST(Hbm, ChannelsCoverColumnBands)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    EXPECT_EQ(hbm.channelOf(0), 0);   // col 0
    EXPECT_EQ(hbm.channelOf(11), 5);  // col 11
    EXPECT_EQ(hbm.channelOf(6), 3);   // col 6
}

TEST(Hbm, AccessAddsLatencyAndBandwidthTime)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    // 307 B/cycle per channel: 3070 B = 10 cycles + 120 latency.
    const auto a = hbm.access(0, 0, 3070);
    EXPECT_EQ(a.end, 10u + hw.hbmLatency);
    EXPECT_EQ(hbm.bytesServed(), 3070u);
}

TEST(Hbm, GapFillingAvoidsHeadOfLineBlocking)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    // A late-issued reservation far in the future...
    (void)hbm.access(1000000, 0, 3070);
    // ...must not delay an earlier-time request issued afterwards.
    const auto early = hbm.access(0, 0, 3070);
    EXPECT_LT(early.end, 1000u);
}

TEST(Hbm, DistinctChannelsDoNotContend)
{
    const HwConfig hw = cfg();
    Hbm hbm(hw);
    const auto a = hbm.access(0, 0, 1 << 20);  // channel 0
    const auto b = hbm.access(0, 11, 1 << 20); // channel 5
    EXPECT_EQ(a.start, b.start);
}

// ---------------------------------------------------------------- Chip

TEST(Chip, OccupyTilesSerializesPerTile)
{
    Chip chip(cfg());
    const auto a = chip.occupyTiles(0, {0, 1}, 100);
    EXPECT_EQ(a.start, 0u);
    const auto b = chip.occupyTiles(0, {1, 2}, 50); // overlaps tile 1
    EXPECT_EQ(b.start, 100u);
    const auto c = chip.occupyTiles(0, {5}, 10); // disjoint
    EXPECT_EQ(c.start, 0u);
    EXPECT_EQ(chip.tilesFreeAt({0}), 100u);
    EXPECT_EQ(chip.tilesFreeAt({1}), 150u);
    EXPECT_EQ(chip.allTilesFreeAt(), 150u);
    EXPECT_EQ(chip.busyTileCycles(), 100u * 2 + 50 * 2 + 10);
}

TEST(Chip, UtilizationAndEnergyAccounting)
{
    Chip chip(cfg());
    // Full-chip peak for 100 cycles.
    chip.recordMacs(static_cast<MacCount>(144) * 1024 * 100,
                    static_cast<MacCount>(144) * 1024 * 50);
    EXPECT_DOUBLE_EQ(chip.peUtilization(100), 1.0);
    EXPECT_DOUBLE_EQ(chip.peUtilization(200), 0.5);

    chip.chargeHbmEnergy(1000);
    chip.chargeNocEnergy(1000);
    chip.chargePeEnergy(42.0);
    chip.chargeSramEnergy(7.0);
    EXPECT_NEAR(chip.energy().hbm, 31.2 * 1000, 1e-6);
    EXPECT_NEAR(chip.energy().noc, 0.8 * 1000, 1e-6);
    EXPECT_NEAR(chip.energy().pe, 42.0, 1e-6);
    EXPECT_NEAR(chip.energy().sram, 7.0, 1e-6);
    EXPECT_GT(chip.energy().total(), 31000.0);

    chip.reset();
    EXPECT_EQ(chip.issuedMacs(), 0u);
    EXPECT_EQ(chip.energy().total(), 0.0);
}

// ------------------------------------------------------------ Profiler

TEST(Profiler, FrequencyTablesAccumulateAndReset)
{
    Profiler prof;
    prof.recordValue(3, 10);
    prof.recordValue(3, 10);
    prof.recordValue(3, 20);
    EXPECT_EQ(prof.table(3).total(), 3u);
    EXPECT_EQ(prof.table(3).count(10), 2u);
    EXPECT_NEAR(prof.table(3).expectation(), 40.0 / 3.0, 1e-9);
    EXPECT_TRUE(prof.table(99).empty());
    ASSERT_EQ(prof.trackedOps().size(), 1u);

    prof.resetTables();
    EXPECT_TRUE(prof.table(3).empty());
}

TEST(Profiler, BranchActivityAndCovariance)
{
    Profiler prof;
    // Two perfectly anti-correlated branches and one dead branch.
    for (int i = 0; i < 10; ++i) {
        const std::int64_t a = i % 2 == 0 ? 10 : 2;
        const std::int64_t b = i % 2 == 0 ? 2 : 10;
        prof.recordBranchLoads(7, {a, b, 0});
    }
    EXPECT_LT(prof.branchCovariance(7, 0, 1), 0.0);
    EXPECT_GT(prof.branchCovariance(7, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(prof.branchActivity(7, 0), 1.0);
    EXPECT_DOUBLE_EQ(prof.branchActivity(7, 2), 0.0);
    // Unknown switch: no history, assume active.
    EXPECT_DOUBLE_EQ(prof.branchActivity(8, 0), 1.0);
    EXPECT_DOUBLE_EQ(prof.branchCovariance(8, 0, 1), 0.0);
}

TEST(Profiler, HistoryIsBounded)
{
    Profiler prof(4);
    for (int i = 0; i < 10; ++i)
        prof.recordBranchLoads(1, {i, i});
    EXPECT_EQ(prof.branchHistory(1).size(), 4u);
    EXPECT_EQ(prof.branchHistory(1).back()[0], 9);
}

TEST(Profiler, WindowBatchesCountResetsWithTables)
{
    Profiler prof;
    EXPECT_EQ(prof.windowBatches(), 0u);
    for (int i = 0; i < 5; ++i) {
        prof.recordValue(1, i);
        prof.noteBatch();
    }
    EXPECT_EQ(prof.windowBatches(), 5u);
    prof.resetTables();
    EXPECT_EQ(prof.windowBatches(), 0u);
    EXPECT_TRUE(prof.table(1).empty());
    prof.noteBatch();
    prof.reset();
    EXPECT_EQ(prof.windowBatches(), 0u);
}

TEST(Profiler, SnapshotIsDeepCopy)
{
    Profiler prof;
    prof.recordValue(2, 10);
    const auto snap = prof.tablesSnapshot();
    prof.recordValue(2, 99);
    prof.recordValue(5, 1);
    EXPECT_EQ(snap.at(2).total(), 1u);
    EXPECT_EQ(snap.count(5), 0u);
}

TEST(Profiler, DriftL1ZeroOnSelfAndDisjointOps)
{
    Profiler prof;
    for (int i = 0; i < 100; ++i)
        prof.recordValue(1, i % 7);
    EXPECT_DOUBLE_EQ(prof.driftL1(prof.tablesSnapshot()), 0.0);

    // Nothing comparable: reference tracks a different op.
    Profiler other;
    other.recordValue(42, 3);
    EXPECT_DOUBLE_EQ(prof.driftL1(other.tablesSnapshot()), 0.0);
}

TEST(Profiler, DriftL1TakesWorstOpNotTheMean)
{
    // Op 1 is stationary, op 2 shifts completely: a mean over ops
    // would halve the signal, the max must keep it at 2 (disjoint
    // supports under normalized L1).
    Profiler ref, cur;
    for (int i = 0; i < 200; ++i) {
        ref.recordValue(1, i % 4);
        cur.recordValue(1, i % 4);
        ref.recordValue(2, 0);
        cur.recordValue(2, 1000);
    }
    const double d = cur.driftL1(ref.tablesSnapshot());
    EXPECT_NEAR(d, 2.0, 1e-9);
}

} // namespace

namespace {

TEST(NocMulticast, SharedPrefixLinksReservedOnce)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    // Tile 0 to tiles 2 and 3 (same row): paths share links 0->1->2.
    const auto m = noc.multicast(0, 0, {2, 3}, 1920);
    // Unique links: 0-E, 1-E, 2-E = 3 links x 1920 bytes.
    EXPECT_EQ(m.byteHops, 3u * 1920u);
    EXPECT_EQ(m.hops, 3);
    // Versus two unicasts: 2 + 3 = 5 link reservations.
    Noc noc2(hw);
    const auto a = noc2.transfer(0, 0, 2, 1920);
    const auto b = noc2.transfer(0, 0, 3, 1920);
    EXPECT_EQ(a.byteHops + b.byteHops, 5u * 1920u);
    // The multicast also finishes no later than the serialized
    // unicasts on the shared first link.
    EXPECT_LE(m.end, std::max(a.end, b.end));
}

TEST(NocMulticast, SelfAndEmptyDestinations)
{
    const HwConfig hw = cfg();
    Noc noc(hw);
    EXPECT_EQ(noc.multicast(5, 0, {}, 100).end, 5u);
    EXPECT_EQ(noc.multicast(5, 0, {0}, 100).end, 5u);
    EXPECT_EQ(noc.byteHopsServed(), 0u);
}

TEST(NocMulticast, MatchesUnicastForSingleDestination)
{
    const HwConfig hw = cfg();
    Noc a(hw), b(hw);
    const auto mu = a.multicast(0, 0, {14}, 4096);
    const auto un = b.transfer(0, 0, 14, 4096);
    EXPECT_EQ(mu.end, un.end);
    EXPECT_EQ(mu.byteHops, un.byteHops);
}

} // namespace

// ------------------------------------------- multicast route tree

namespace {

/**
 * Reference transfers on a shadow set of link resources. A unicast
 * reserves every link of route() (so faults apply); a multicast
 * reserves the union of the per-destination routes, deduplicated by
 * sort + unique. Noc's links are 4 per tile in LinkDir order, so
 * route() indices address the shadow directly.
 */
struct ReferenceNoc
{
    explicit ReferenceNoc(const HwConfig &config)
        : hw(config), routes(config),
          links(static_cast<std::size_t>(config.tiles()) * 4,
                des::GapBandwidthResource(config.nocLinkBytesPerCycle)),
          factor(links.size(), 1.0)
    {
    }

    /** Reserve one shadow link; a degraded link moves the payload at
     * factor x the bandwidth. */
    des::Reservation
    acquire(std::size_t link, Tick earliest, Bytes bytes)
    {
        const auto effective =
            factor[link] < 1.0
                ? static_cast<Bytes>(std::ceil(
                      static_cast<double>(bytes) / factor[link]))
                : bytes;
        return links[link].acquire(earliest, effective);
    }

    void
    setLinkDown(TileId tile, int dir)
    {
        routes.setLinkDown(tile, dir, true);
    }

    void
    setLinkBandwidthFactor(TileId tile, int dir, double f)
    {
        routes.setLinkBandwidthFactor(tile, dir, f);
        factor[static_cast<std::size_t>(tile) * 4 +
               static_cast<std::size_t>(dir)] = f;
    }

    NocTransfer
    transfer(Tick earliest, TileId src, TileId dst, Bytes bytes)
    {
        NocTransfer t;
        t.start = earliest;
        t.end = earliest;
        if (src == dst || bytes == 0)
            return t;
        const auto rt = routes.route(src, dst);
        Tick latest = earliest;
        for (std::size_t link : rt)
            latest = std::max(latest, acquire(link, earliest, bytes).end);
        t.hops = static_cast<int>(rt.size());
        t.end = latest + static_cast<Tick>(t.hops) * hw.nocHopLatency;
        t.byteHops = bytes * static_cast<Bytes>(t.hops);
        return t;
    }

    NocTransfer
    multicast(Tick earliest, TileId src, const std::vector<TileId> &dsts,
              Bytes bytes)
    {
        NocTransfer t;
        t.start = earliest;
        t.end = earliest;
        if (bytes == 0 || dsts.empty())
            return t;
        std::vector<std::size_t> all;
        for (TileId dst : dsts) {
            if (dst == src)
                continue;
            const auto rt = routes.route(src, dst);
            t.hops = std::max(t.hops, static_cast<int>(rt.size()));
            all.insert(all.end(), rt.begin(), rt.end());
        }
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        Tick latest = earliest;
        for (std::size_t link : all)
            latest = std::max(latest, acquire(link, earliest, bytes).end);
        t.end = latest + static_cast<Tick>(t.hops) * hw.nocHopLatency;
        t.byteHops = bytes * static_cast<Bytes>(all.size());
        return t;
    }

    Tick
    busyTicks() const
    {
        Tick total = 0;
        for (const auto &link : links)
            total += link.busyTicks();
        return total;
    }

    HwConfig hw;
    Noc routes; ///< route() oracle; carries the same faults
    std::vector<des::GapBandwidthResource> links;
    std::vector<double> factor; ///< per-link bandwidth factor
};

/** A destination group of one of the shapes the engine issues, plus
 * the corner cases: random with duplicates, the source's own row or
 * column, the full grid, and sets that include the source. */
std::vector<TileId>
randomGroup(Rng &rng, const HwConfig &hw, TileId src)
{
    const int tiles = hw.tiles();
    std::vector<TileId> dsts;
    const auto pick = [&] {
        return static_cast<TileId>(rng.uniformInt(0, tiles - 1));
    };
    switch (rng.uniformInt(0, 4)) {
      case 0: // random, duplicates allowed
        for (int n = static_cast<int>(rng.uniformInt(1, 12)); n > 0; --n)
            dsts.push_back(pick());
        break;
      case 1: // same row
        for (int c = 0; c < hw.gridCols; ++c)
            if (rng.bernoulli(0.5))
                dsts.push_back(static_cast<TileId>(
                    hw.tileRow(src) * hw.gridCols + c));
        break;
      case 2: // same column
        for (int r = 0; r < hw.gridRows; ++r)
            if (rng.bernoulli(0.5))
                dsts.push_back(static_cast<TileId>(
                    r * hw.gridCols + hw.tileCol(src)));
        break;
      case 3: // full grid, source included
        for (int t = 0; t < tiles; ++t)
            dsts.push_back(static_cast<TileId>(t));
        break;
      default: // a contiguous tile group, as the scheduler allocates
      {
        const int first = static_cast<int>(rng.uniformInt(0, tiles - 1));
        const int len = static_cast<int>(rng.uniformInt(1, tiles));
        for (int i = 0; i < len; ++i)
            dsts.push_back(static_cast<TileId>((first + i) % tiles));
        break;
      }
    }
    if (rng.bernoulli(0.3))
        dsts.push_back(src);
    return dsts;
}

/** Compare per-link state after a random stream: aggregate busy
 * ticks, and a one-link probe transfer on every link that is some
 * neighbour's whole route (its grant depends on the link's full
 * interval list). */
void
expectLinksMatchReference(Noc &noc, ReferenceNoc &ref)
{
    const HwConfig &hw = ref.hw;
    EXPECT_EQ(noc.linkBusyTicks(), ref.busyTicks());

    int probed = 0;
    for (TileId tile = 0; tile < static_cast<TileId>(hw.tiles()); ++tile) {
        for (int dir = 0; dir < 4; ++dir) {
            const TileId next = torusNeighbor(hw, tile, dir);
            const std::size_t link =
                static_cast<std::size_t>(tile) * 4 +
                static_cast<std::size_t>(dir);
            if (ref.routes.route(tile, next) !=
                std::vector<std::size_t>{link})
                continue;
            for (const Tick at : {Tick{0}, Tick{1500}}) {
                const auto got = noc.transfer(at, tile, next, 3000);
                const Tick want =
                    ref.acquire(link, at, 3000).end + hw.nocHopLatency;
                ASSERT_EQ(got.end, want)
                    << "link " << tile << "/" << dir << " at " << at;
            }
            ++probed;
        }
    }
    EXPECT_GT(probed, 0);
}

/** Random payload size: mostly small, sometimes many kilobytes. */
Bytes
randomBytes(Rng &rng)
{
    return static_cast<Bytes>(rng.uniformInt(1, 64) *
                              (rng.bernoulli(0.2) ? 4096 : 64));
}

/** Drive @p noc and the reference with the same random multicasts,
 * comparing every transfer, then compare per-link state. */
void
expectMulticastMatchesReference(Noc &noc, ReferenceNoc &ref,
                                 std::uint64_t seed)
{
    const HwConfig &hw = ref.hw;
    Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
        const auto src =
            static_cast<TileId>(rng.uniformInt(0, hw.tiles() - 1));
        const auto dsts = randomGroup(rng, hw, src);
        const auto earliest = static_cast<Tick>(rng.uniformInt(0, 4000));
        const auto bytes = randomBytes(rng);
        const auto got = noc.multicast(earliest, src, dsts, bytes);
        const auto want = ref.multicast(earliest, src, dsts, bytes);
        ASSERT_EQ(got.start, want.start) << "multicast " << i;
        ASSERT_EQ(got.end, want.end) << "multicast " << i;
        ASSERT_EQ(got.hops, want.hops) << "multicast " << i;
        ASSERT_EQ(got.byteHops, want.byteHops) << "multicast " << i;
    }
    expectLinksMatchReference(noc, ref);
}

/** The same for random unicast transfers (every pair, including
 * src == dst, and the occasional zero-byte message). */
void
expectTransferMatchesReference(Noc &noc, ReferenceNoc &ref,
                               std::uint64_t seed)
{
    const HwConfig &hw = ref.hw;
    Rng rng(seed);
    const Bytes servedBefore = noc.byteHopsServed();
    Bytes byteHops = 0;
    for (int i = 0; i < 400; ++i) {
        const auto src =
            static_cast<TileId>(rng.uniformInt(0, hw.tiles() - 1));
        const auto dst =
            static_cast<TileId>(rng.uniformInt(0, hw.tiles() - 1));
        const auto earliest = static_cast<Tick>(rng.uniformInt(0, 4000));
        const Bytes bytes = rng.bernoulli(0.05) ? 0 : randomBytes(rng);
        const auto got = noc.transfer(earliest, src, dst, bytes);
        const auto want = ref.transfer(earliest, src, dst, bytes);
        ASSERT_EQ(got.start, want.start) << "transfer " << i;
        ASSERT_EQ(got.end, want.end) << "transfer " << i;
        ASSERT_EQ(got.hops, want.hops) << "transfer " << i;
        ASSERT_EQ(got.byteHops, want.byteHops) << "transfer " << i;
        byteHops += want.byteHops;
    }
    EXPECT_EQ(noc.byteHopsServed() - servedBefore, byteHops);
    expectLinksMatchReference(noc, ref);
}

/** Odd and even sides, square and not: an even side has the n/2 tie,
 * which X-Y routing breaks towards east / south. */
const std::pair<int, int> kTorusShapes[] = {
    {3, 5}, {4, 4}, {4, 6}, {5, 5}, {6, 3}, {2, 7}, {1, 6}, {12, 12},
};

TEST(Noc, TransferMatchesRouteReference)
{
    // Each torus healthy, then with degraded links (the route stays
    // X-Y, reservations stretch), then with links down (Y-X or BFS
    // detours). The faulty links are drawn from a seeded stream.
    enum class Faults { None, Degraded, Down };
    std::uint64_t seed = 1;
    std::uint64_t detours = 0;
    for (const auto &[rows, cols] : kTorusShapes) {
        for (Faults faults : {Faults::None, Faults::Degraded, Faults::Down}) {
            SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                         " faults " +
                         std::to_string(static_cast<int>(faults)));
            HwConfig hw;
            hw.gridRows = rows;
            hw.gridCols = cols;
            Noc noc(hw);
            ReferenceNoc ref(hw);
            Rng pick(seed * 31);
            for (int k = 0; k < 3 && faults != Faults::None; ++k) {
                const auto tile =
                    static_cast<TileId>(pick.uniformInt(0, hw.tiles() - 1));
                const int dir = static_cast<int>(pick.uniformInt(0, 3));
                if (faults == Faults::Down) {
                    noc.setLinkDown(tile, dir, true);
                    ref.setLinkDown(tile, dir);
                } else {
                    const double f = 0.25 * static_cast<double>(k + 1);
                    noc.setLinkBandwidthFactor(tile, dir, f);
                    ref.setLinkBandwidthFactor(tile, dir, f);
                }
            }
            expectTransferMatchesReference(noc, ref, seed++);
            if (faults == Faults::Down) {
                detours += noc.detourRoutes();
            } else {
                EXPECT_EQ(noc.detourRoutes(), 0u);
            }
        }
    }
    EXPECT_GT(detours, 0u);
}

TEST(NocMulticast, RouteTreeMatchesPerDestinationUnion)
{
    std::uint64_t seed = 1;
    for (const auto &[rows, cols] : kTorusShapes) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        HwConfig hw;
        hw.gridRows = rows;
        hw.gridCols = cols;
        Noc noc(hw);
        ReferenceNoc ref(hw);
        expectMulticastMatchesReference(noc, ref, seed++);
    }
}

TEST(NocMulticast, LinkDownFaultKeepsPerDestinationUnion)
{
    // With a link down, multicast falls back to the per-destination
    // fault-aware routes (Y-X or a BFS detour) and their union.
    HwConfig hw;
    hw.gridRows = 5;
    hw.gridCols = 6;
    Noc noc(hw);
    ReferenceNoc ref(hw);
    for (const auto &[tile, dir] :
         {std::pair<TileId, int>{7, kLinkEast}, {14, kLinkSouth},
          {20, kLinkWest}}) {
        noc.setLinkDown(tile, dir, true);
        ref.setLinkDown(tile, dir);
    }
    expectMulticastMatchesReference(noc, ref, 99);
    EXPECT_GT(noc.detourRoutes(), 0u);
}

TEST(NocMulticast, DegradedLinksKeepRouteTree)
{
    // Degraded links (the multi-tenant interference model) keep every
    // route X-Y and only stretch their own reservations, so the route
    // tree still applies.
    HwConfig hw;
    hw.gridRows = 6;
    hw.gridCols = 5;
    Noc noc(hw);
    ReferenceNoc ref(hw);
    for (const auto &[tile, dir, f] :
         {std::tuple<TileId, int, double>{0, kLinkEast, 0.5},
          {6, kLinkSouth, 0.3}, {12, kLinkWest, 0.75},
          {13, kLinkNorth, 0.5}}) {
        noc.setLinkBandwidthFactor(tile, dir, f);
        ref.setLinkBandwidthFactor(tile, dir, f);
    }
    expectMulticastMatchesReference(noc, ref, 7);
    EXPECT_EQ(noc.detourRoutes(), 0u);
}

} // namespace
