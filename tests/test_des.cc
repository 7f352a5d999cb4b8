/**
 * @file
 * Unit tests for the timed resource reservation models: the serial
 * server and the gap-filling bandwidth channel (the latter also
 * against a brute-force oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "des/resource.hh"
#include "gap_oracle.hh"

namespace {

using namespace adyna;
using namespace adyna::des;

TEST(SerialResource, SerializesOverlappingWork)
{
    SerialResource server;
    const auto a = server.acquire(0, 10);
    const auto b = server.acquire(5, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 10u);
    EXPECT_EQ(b.end, 20u);
    EXPECT_EQ(server.busyTicks(), 20u);
}

TEST(SerialResource, ZeroDurationIsInstant)
{
    SerialResource server;
    const auto a = server.acquire(3, 0);
    EXPECT_EQ(a.start, 3u);
    EXPECT_EQ(a.end, 3u);
}

} // namespace

TEST(GapBandwidthResource, FillsEarliestGap)
{
    GapBandwidthResource ch(10.0);
    // Reserve [100, 110) first.
    const auto late = ch.acquire(100, 100);
    EXPECT_EQ(late.start, 100u);
    // An earlier request fits before it.
    const auto early = ch.acquire(0, 100);
    EXPECT_EQ(early.start, 0u);
    EXPECT_EQ(early.end, 10u);
    // A large request does not fit in the [10, 100) gap? It does:
    // 900 bytes = 90 ticks exactly.
    const auto mid = ch.acquire(0, 900);
    EXPECT_EQ(mid.start, 10u);
    EXPECT_EQ(mid.end, 100u);
    // Now everything up to 110 is busy: next goes after.
    const auto next = ch.acquire(0, 10);
    EXPECT_EQ(next.start, 110u);
}

TEST(GapBandwidthResource, RespectsEarliest)
{
    GapBandwidthResource ch(10.0);
    const auto a = ch.acquire(50, 100);
    EXPECT_EQ(a.start, 50u);
    // earliest inside an existing reservation: starts at its end.
    const auto b = ch.acquire(55, 10);
    EXPECT_EQ(b.start, 60u);
}

TEST(GapBandwidthResource, TooSmallGapIsSkipped)
{
    GapBandwidthResource ch(1.0);
    (void)ch.acquire(0, 10);   // [0, 10)
    (void)ch.acquire(15, 10);  // [15, 25)
    // 8 ticks do not fit in the 5-tick gap [10, 15).
    const auto c = ch.acquire(0, 8);
    EXPECT_EQ(c.start, 25u);
    // 5 ticks do.
    const auto d = ch.acquire(0, 5);
    EXPECT_EQ(d.start, 10u);
}

TEST(GapBandwidthResource, AccountingAndReset)
{
    GapBandwidthResource ch(2.0);
    (void)ch.acquire(0, 10);
    (void)ch.acquire(100, 6);
    EXPECT_EQ(ch.bytesServed(), 16u);
    EXPECT_EQ(ch.busyTicks(), 5u + 3u);
    ch.reset();
    EXPECT_EQ(ch.bytesServed(), 0u);
    const auto a = ch.acquire(0, 2);
    EXPECT_EQ(a.start, 0u);
}

TEST(GapBandwidthResource, ManyRandomReservationsStayDisjoint)
{
    GapBandwidthResource ch(1.0);
    Rng rng(99);
    std::vector<Reservation> granted;
    for (int i = 0; i < 200; ++i) {
        const Tick t = static_cast<Tick>(rng.uniformInt(0, 5000));
        const Bytes b = static_cast<Bytes>(rng.uniformInt(1, 40));
        const auto r = ch.acquire(t, b);
        EXPECT_GE(r.start, t);
        granted.push_back(r);
    }
    std::sort(granted.begin(), granted.end(),
              [](const Reservation &a, const Reservation &b) {
                  return a.start < b.start;
              });
    for (std::size_t i = 1; i < granted.size(); ++i)
        EXPECT_LE(granted[i - 1].end, granted[i].start);
}

TEST(GapBandwidthResource, TrimBoundsReservationCount)
{
    // Monotone acquire + periodic trim (the engine's period-barrier
    // pattern) must keep the live interval list bounded instead of
    // grow-only.
    GapBandwidthResource ch(1.0);
    std::size_t peak = 0;
    Tick t = 0;
    for (int period = 0; period < 200; ++period) {
        for (int i = 0; i < 16; ++i) {
            (void)ch.acquire(t, 4);
            t += 10; // gaps between reservations stay unmerged
        }
        ch.trim(t);
        peak = std::max(peak, ch.reservationCount());
    }
    // Everything ending at or before the barrier is gone; only
    // intervals granted after the last barrier could survive.
    EXPECT_EQ(ch.reservationCount(), 0u);
    EXPECT_LE(peak, 16u);
}

TEST(GapBandwidthResource, TrimPreservesAcquireTimings)
{
    // Two channels fed the same monotone request stream, one trimmed
    // at every barrier: every grant must be identical.
    GapBandwidthResource trimmed(2.0), reference(2.0);
    Rng rng(7);
    Tick barrier = 0;
    for (int period = 0; period < 50; ++period) {
        Tick t = barrier;
        for (int i = 0; i < 12; ++i) {
            t += static_cast<Tick>(rng.uniformInt(0, 9));
            const Bytes b = static_cast<Bytes>(rng.uniformInt(1, 32));
            const auto a = trimmed.acquire(t, b);
            const auto c = reference.acquire(t, b);
            EXPECT_EQ(a.start, c.start);
            EXPECT_EQ(a.end, c.end);
            barrier = std::max(barrier, a.end);
        }
        trimmed.trim(barrier);
    }
    EXPECT_EQ(trimmed.bytesServed(), reference.bytesServed());
    EXPECT_EQ(trimmed.busyTicks(), reference.busyTicks());
}

TEST(GapBandwidthResource, ZeroByteAcquireOccupiesNothing)
{
    GapBandwidthResource ch(1.0);
    (void)ch.acquire(10, 10); // [10, 20)
    (void)ch.acquire(40, 10); // [40, 50)
    // Zero bytes in a gap: granted where asked.
    const auto inGap = ch.acquire(30, 0);
    EXPECT_EQ(inGap.start, 30u);
    EXPECT_EQ(inGap.end, 30u);
    // Zero bytes inside a reservation: granted at its end.
    const auto inside = ch.acquire(15, 0);
    EXPECT_EQ(inside.start, 20u);
    EXPECT_EQ(inside.end, 20u);
    EXPECT_EQ(ch.reservationCount(), 2u);
    EXPECT_EQ(ch.busyTicks(), 20u);
    EXPECT_EQ(ch.bytesServed(), 20u);
    // Nothing was left behind at 30: the whole [20, 40) gap is free.
    const auto fill = ch.acquire(20, 20);
    EXPECT_EQ(fill.start, 20u);
    EXPECT_EQ(fill.end, 40u);
    EXPECT_EQ(ch.reservationCount(), 1u);
}

TEST(GapBandwidthResource, MatchesBruteForceOracle)
{
    // Seeded random streams: requests land out of order inside a
    // window above a monotone trim barrier (the engine's contract),
    // with mixed sizes from zero bytes to many times the window's
    // typical gap. The trims expire enough intervals to compact the
    // vector many times over. Every grant must equal the oracle's.
    const double rates[] = {1.0, 2.0, 3.5, 192.0};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        const double rate = rates[seed % 4];
        GapBandwidthResource ch(rate);
        oracle::GapOracle ref(rate);
        Tick barrier = 0;
        for (int step = 0; step < 3000; ++step) {
            if (rng.uniformInt(0, 19) == 0) {
                barrier += static_cast<Tick>(rng.uniformInt(0, 400));
                ch.trim(barrier);
                continue;
            }
            const Tick earliest =
                barrier + static_cast<Tick>(rng.uniformInt(0, 600));
            const auto scale = static_cast<std::int64_t>(rate);
            Bytes bytes = 0;
            switch (rng.uniformInt(0, 9)) {
              case 0:
                break; // zero bytes: granted, but occupies nothing
              case 1:
                bytes = static_cast<Bytes>(
                    rng.uniformInt(50 * scale, 200 * scale));
                break;
              default:
                bytes = static_cast<Bytes>(rng.uniformInt(1, 12 * scale));
                break;
            }
            const auto got = ch.acquire(earliest, bytes);
            const auto live = ch.liveReservations();
            if (bytes == 0) {
                // Not replayed on the oracle: it must leave no trace
                // for the grants that follow to trip over.
                ASSERT_EQ(got.start, got.end);
                ASSERT_GE(got.start, earliest);
                for (const auto &r : live)
                    ASSERT_FALSE(r.start < got.start && got.start < r.end);
            } else {
                const auto want = ref.acquire(earliest, bytes);
                ASSERT_EQ(got.start, want.start)
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(got.end, want.end)
                    << "seed " << seed << " step " << step;
            }
            for (std::size_t i = 0; i < live.size(); ++i) {
                ASSERT_LT(live[i].start, live[i].end);
                if (i > 0) {
                    ASSERT_LT(live[i - 1].end, live[i].start);
                }
            }
        }
        EXPECT_EQ(ch.busyTicks(), ref.busyTicks());
        EXPECT_EQ(ch.bytesServed(), ref.bytesServed());
    }
}

// The tail-first lookup: acquire() checks the last live interval and
// the one before it before falling back to a binary search. These pin
// each boundary of that dispatch with rate 1 (bytes == ticks).

TEST(GapBandwidthResource, TailLookupAtLastEnd)
{
    GapBandwidthResource ch(1.0);
    (void)ch.acquire(0, 10);  // [0, 10)
    (void)ch.acquire(20, 10); // [20, 30)
    // Starts exactly where the last interval ends: appended, merged.
    const auto g = ch.acquire(30, 5);
    EXPECT_EQ(g.start, 30u);
    EXPECT_EQ(g.end, 35u);
    ASSERT_EQ(ch.reservationCount(), 2u);
    EXPECT_EQ(ch.liveReservations().back().start, 20u);
    EXPECT_EQ(ch.liveReservations().back().end, 35u);
    // One tick behind the end: the last interval is still busy.
    const auto h = ch.acquire(34, 5);
    EXPECT_EQ(h.start, 35u);
    EXPECT_EQ(h.end, 40u);
    EXPECT_EQ(ch.reservationCount(), 2u);
}

TEST(GapBandwidthResource, TailLookupAtSecondToLastEnd)
{
    const auto threeIntervals = [] {
        GapBandwidthResource ch(1.0);
        (void)ch.acquire(0, 10);  // [0, 10)
        (void)ch.acquire(20, 10); // [20, 30)
        (void)ch.acquire(40, 10); // [40, 50)
        return ch;
    };
    {
        // Fits the gap behind the last interval: fills it exactly,
        // merging the last two intervals.
        auto ch = threeIntervals();
        const auto g = ch.acquire(30, 10);
        EXPECT_EQ(g.start, 30u);
        EXPECT_EQ(g.end, 40u);
        ASSERT_EQ(ch.reservationCount(), 2u);
        EXPECT_EQ(ch.liveReservations()[1].start, 20u);
        EXPECT_EQ(ch.liveReservations()[1].end, 50u);
    }
    {
        // Too long for that gap: lands after the last interval.
        auto ch = threeIntervals();
        const auto g = ch.acquire(30, 15);
        EXPECT_EQ(g.start, 50u);
        EXPECT_EQ(g.end, 65u);
        EXPECT_EQ(ch.reservationCount(), 3u);
    }
    {
        // One tick earlier the second-to-last interval is still busy,
        // so the binary search decides; the grant waits for its end.
        auto ch = threeIntervals();
        const auto g = ch.acquire(29, 5);
        EXPECT_EQ(g.start, 30u);
        EXPECT_EQ(g.end, 35u);
        EXPECT_EQ(ch.reservationCount(), 3u);
    }
    {
        // Earlier still: the first gap that fits is [10, 20).
        auto ch = threeIntervals();
        const auto g = ch.acquire(5, 10);
        EXPECT_EQ(g.start, 10u);
        EXPECT_EQ(g.end, 20u);
        EXPECT_EQ(ch.reservationCount(), 2u);
    }
}

TEST(GapBandwidthResource, TailLookupWithOneLiveInterval)
{
    const auto oneInterval = [] {
        GapBandwidthResource ch(1.0);
        (void)ch.acquire(10, 10); // [10, 20)
        return ch;
    };
    const struct
    {
        Tick earliest;
        Bytes bytes;
        Tick start;
    } cases[] = {
        {0, 10, 0},   // fits before it, touching
        {0, 11, 20},  // one tick too long for the gap before it
        {5, 10, 20},  // overlaps it: waits for its end
        {15, 1, 20},  // inside it
        {19, 4, 20},  // one tick before its end
        {20, 4, 20},  // exactly at its end
        {25, 4, 25},  // past it
    };
    for (const auto &c : cases) {
        auto ch = oneInterval();
        const auto g = ch.acquire(c.earliest, c.bytes);
        EXPECT_EQ(g.start, c.start) << "earliest " << c.earliest;
        EXPECT_EQ(g.end, c.start + c.bytes) << "earliest " << c.earliest;
    }

    // One live interval behind an expired prefix: a grant touching
    // the live interval merges into it, never into the expired one.
    GapBandwidthResource ch(1.0);
    (void)ch.acquire(0, 10);  // [0, 10)
    (void)ch.acquire(20, 10); // [20, 30)
    ch.trim(10);
    ASSERT_EQ(ch.reservationCount(), 1u);
    const auto g = ch.acquire(10, 10);
    EXPECT_EQ(g.start, 10u);
    EXPECT_EQ(g.end, 20u);
    ASSERT_EQ(ch.reservationCount(), 1u);
    EXPECT_EQ(ch.liveReservations()[0].start, 10u);
    EXPECT_EQ(ch.liveReservations()[0].end, 30u);
    const auto h = ch.acquire(15, 5);
    EXPECT_EQ(h.start, 30u);
    EXPECT_EQ(h.end, 35u);
}

TEST(GapBandwidthResource, TailLookupAfterEveryIntervalExpired)
{
    // Below and above the compaction threshold: with few intervals
    // the expired prefix stays in the vector (head == size), with
    // many it is compacted away.
    for (int intervals : {2, 40}) {
        SCOPED_TRACE(intervals);
        GapBandwidthResource ch(1.0);
        Tick t = 0;
        for (int i = 0; i < intervals; ++i, t += 20)
            (void)ch.acquire(t, 10);
        const Tick lastEnd = t - 10;
        ch.trim(lastEnd);
        ASSERT_EQ(ch.reservationCount(), 0u);
        // At the barrier, exactly where the last expired interval
        // ended: a fresh interval, not merged into the expired one.
        const auto g = ch.acquire(lastEnd, 5);
        EXPECT_EQ(g.start, lastEnd);
        EXPECT_EQ(g.end, lastEnd + 5);
        ASSERT_EQ(ch.reservationCount(), 1u);
        EXPECT_EQ(ch.liveReservations()[0].start, lastEnd);
        const auto h = ch.acquire(lastEnd, 5);
        EXPECT_EQ(h.start, lastEnd + 5);
        ASSERT_EQ(ch.reservationCount(), 1u);
        EXPECT_EQ(ch.liveReservations()[0].end, lastEnd + 10);
    }
}

TEST(GapBandwidthResource, TailWeightedStreamMatchesOracle)
{
    // Requests weighted the way the engine issues them: most at the
    // current tail's end or a little behind it (inside or just after
    // the last interval or two), some exactly at the second-to-last
    // interval's end, a few anywhere above the barrier, interleaved
    // with trims. Every grant must equal the brute-force oracle's.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 7919);
        const double rate = seed % 2 ? 1.0 : 64.0;
        const auto scale = static_cast<std::int64_t>(rate);
        GapBandwidthResource ch(rate);
        oracle::GapOracle ref(rate);
        Tick barrier = 0;
        for (int step = 0; step < 4000; ++step) {
            const auto live = ch.liveReservations();
            if (rng.uniformInt(0, 24) == 0) {
                // Trim up to a little behind the tail, so requests
                // keep landing behind it afterwards.
                const Tick tail = live.empty() ? barrier : live.back().end;
                barrier = std::max(
                    barrier, tail - std::min<Tick>(
                                        tail, static_cast<Tick>(
                                                  rng.uniformInt(0, 60))));
                ch.trim(barrier);
                continue;
            }
            Tick earliest = barrier;
            const auto pick = rng.uniformInt(0, 19);
            if (!live.empty() && pick < 8) {
                earliest = live.back().end; // at the tail
            } else if (!live.empty() && pick < 14) {
                const Tick back = static_cast<Tick>(rng.uniformInt(1, 30));
                earliest = live.back().end - std::min(live.back().end, back);
            } else if (live.size() >= 2 && pick < 17) {
                earliest = live[live.size() - 2].end;
            } else {
                earliest += static_cast<Tick>(rng.uniformInt(0, 400));
            }
            earliest = std::max(earliest, barrier);
            if (rng.uniformInt(0, 9) == 0)
                earliest += static_cast<Tick>(rng.uniformInt(1, 40));
            const auto bytes = static_cast<Bytes>(
                rng.uniformInt(1, 16 * scale));
            const auto got = ch.acquire(earliest, bytes);
            const auto want = ref.acquire(earliest, bytes);
            ASSERT_EQ(got.start, want.start)
                << "seed " << seed << " step " << step;
            ASSERT_EQ(got.end, want.end)
                << "seed " << seed << " step " << step;
        }
        EXPECT_EQ(ch.busyTicks(), ref.busyTicks());
        EXPECT_EQ(ch.bytesServed(), ref.bytesServed());
    }
}
