/**
 * @file
 * Timed resources with busy-until reservation semantics.
 *
 * BandwidthResource models a serial channel (a NoC link, an HBM
 * channel) at a fixed rate: a reservation of B bytes occupies the
 * channel for ceil(B / rate) ticks starting no earlier than both the
 * requested time and the end of the previous reservation. This is the
 * standard message-level contention model for interconnect and memory
 * in multi-tile accelerator simulators.
 */

#ifndef ADYNA_DES_RESOURCE_HH
#define ADYNA_DES_RESOURCE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace adyna::des {

/** Time interval [start, end) of a granted reservation. */
struct Reservation
{
    Tick start = 0;
    Tick end = 0;

    Tick duration() const { return end - start; }
};

/** Serial channel with a fixed byte rate and FIFO reservations. */
class BandwidthResource
{
  public:
    /**
     * @param bytes_per_tick channel rate; must be positive.
     */
    explicit BandwidthResource(double bytes_per_tick);

    /**
     * Reserve the channel for @p bytes starting no earlier than
     * @p earliest. Advances the busy horizon.
     */
    Reservation acquire(Tick earliest, Bytes bytes);

    /** Time at which all granted reservations end. */
    Tick busyUntil() const { return busyUntil_; }

    /** Total bytes granted so far. */
    Bytes bytesServed() const { return bytesServed_; }

    /** Total ticks the channel has been occupied. */
    Tick busyTicks() const { return busyTicks_; }

    /** Channel rate in bytes per tick. */
    double rate() const { return rate_; }

    /** Duration of transferring @p bytes at the channel rate. */
    Tick serviceTime(Bytes bytes) const;

    /** Forget all reservations (e.g. between benchmark repetitions). */
    void reset();

  private:
    double rate_;
    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;
    Bytes bytesServed_ = 0;
};

/**
 * Serial channel with gap-filling reservations: like
 * BandwidthResource, but a request whose desired start lies in an
 * idle gap between existing reservations may claim that gap instead
 * of queueing at the end. This avoids head-of-line blocking when
 * requests are issued out of time order (e.g. a late write-back
 * issued before the next batch's early read). Backs every HBM
 * channel and every directed NoC link, so acquire() is the
 * simulator's innermost loop: it binary-searches past the intervals
 * that end at or before the requested start, then scans forward
 * for the first gap that fits.
 */
class GapBandwidthResource
{
  public:
    explicit GapBandwidthResource(double bytes_per_tick);

    /** Reserve the channel for @p bytes at the earliest idle gap
     * starting no earlier than @p earliest. A zero-byte request is
     * granted an empty interval at that point and occupies nothing. */
    Reservation acquire(Tick earliest, Bytes bytes);

    Tick serviceTime(Bytes bytes) const;

    Bytes bytesServed() const { return bytesServed_; }
    Tick busyTicks() const { return busyTicks_; }

    /**
     * Drop reservations that end at or before @p before. Caller
     * contract: every future acquire() passes earliest >= @p before
     * (the engine trims at the period barrier, which is monotone).
     * Under that contract an expired interval can never change a
     * grant, so trimming is behaviour-preserving; it keeps the live
     * interval list bounded under steady-state traffic instead of
     * grow-only.
     */
    void trim(Tick before);

    /** Live (non-expired) reservations currently tracked. */
    std::size_t reservationCount() const
    {
        return busy_.size() - head_;
    }

    /** The live reservations, sorted by start and disjoint (adjacent
     * grants are merged into one interval). */
    std::span<const Reservation> liveReservations() const
    {
        return std::span<const Reservation>(busy_).subspan(head_);
    }

    void reset();

  private:
    double rate_;
    /** Sorted, disjoint busy intervals [start, end). Entries before
     * head_ are expired (end <= last trim barrier) and excluded from
     * the gap search; the prefix is compacted away once it dominates
     * the vector, so erasure cost amortizes to O(1) per trim. */
    std::vector<Reservation> busy_;
    std::size_t head_ = 0;
    Tick busyTicks_ = 0;
    Bytes bytesServed_ = 0;
};

/**
 * Unit-capacity server: a reservation occupies the server for an
 * explicit duration (used for tile compute occupancy and for the
 * host-CPU scheduling path in the baselines).
 */
class SerialResource
{
  public:
    /** Reserve for @p duration ticks starting no earlier than
     * @p earliest. */
    Reservation acquire(Tick earliest, Tick duration);

    Tick busyUntil() const { return busyUntil_; }
    Tick busyTicks() const { return busyTicks_; }

    void reset();

  private:
    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace adyna::des

#endif // ADYNA_DES_RESOURCE_HH
