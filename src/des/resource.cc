#include "des/resource.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hh"

namespace adyna::des {

GapBandwidthResource::GapBandwidthResource(double bytes_per_tick)
    : rate_(bytes_per_tick)
{
    ADYNA_ASSERT(rate_ > 0.0, "channel rate must be positive: ", rate_);
}

Tick
GapBandwidthResource::serviceTime(Bytes bytes) const
{
    if (bytes == 0)
        return 0;
    const double ticks = static_cast<double>(bytes) / rate_;
    return static_cast<Tick>(std::ceil(ticks));
}

Reservation
GapBandwidthResource::acquire(Tick earliest, Bytes bytes)
{
    return acquire(earliest, bytes, serviceTime(bytes));
}

Reservation
GapBandwidthResource::acquire(Tick earliest, Bytes bytes, Tick dur)
{
#ifdef ADYNA_SANITIZE
    ADYNA_ASSERT(dur == serviceTime(bytes), "service time ", dur,
                 " does not match ", bytes, " bytes at rate ", rate_);
#endif
    bytesServed_ += bytes;
    busyTicks_ += dur;

    // First idle gap of length >= dur starting at or after earliest.
    // Live intervals are sorted and disjoint, so their ends are
    // sorted too: every interval ending at or before earliest sits
    // in a prefix that can neither hold the grant nor move the
    // candidate, so the scan starts at the first interval ending
    // after earliest. Requests mostly land at or just behind the
    // tail, so look there first: past the last interval, or at it
    // when the one before it has already ended. Only otherwise
    // binary-search the rest (the expired entries before head_ are
    // never searched).
    const auto first =
        busy_.begin() + static_cast<std::ptrdiff_t>(head_);
    auto it = busy_.end();
    if (it != first && earliest < std::prev(it)->end) {
        --it;
        if (it != first && earliest < std::prev(it)->end)
            it = std::partition_point(
                first, std::prev(it),
                [earliest](const Reservation &r) {
                    return r.end <= earliest;
                });
    }
    Tick candidate = earliest;
    for (; it != busy_.end(); ++it) {
        if (candidate + dur <= it->start)
            break; // fits before this interval
        candidate = std::max(candidate, it->end);
    }
    const auto insertAt =
        static_cast<std::size_t>(it - busy_.begin());
    const Reservation granted{candidate, candidate + dur};
    if (dur == 0)
        return granted; // occupies nothing: keep busy_ free of [t, t)

    // Splice in place. Intervals are disjoint, so the grant can only
    // touch (not overlap) its neighbours; extending a neighbour
    // replaces the old rebuild-the-whole-vector merge pass. A grant
    // is never merged into the expired prefix: that would hide busy
    // time from the gap search, which never looks before head_.
    const bool touchPrev = insertAt > head_ &&
                           busy_[insertAt - 1].end == granted.start;
    const bool touchNext = insertAt < busy_.size() &&
                           granted.end == busy_[insertAt].start;
    if (touchPrev && touchNext) {
        busy_[insertAt - 1].end = busy_[insertAt].end;
        busy_.erase(busy_.begin() +
                    static_cast<std::ptrdiff_t>(insertAt));
    } else if (touchPrev) {
        busy_[insertAt - 1].end = granted.end;
    } else if (touchNext) {
        busy_[insertAt].start = granted.start;
    } else {
        busy_.insert(busy_.begin() +
                         static_cast<std::ptrdiff_t>(insertAt),
                     granted);
    }
    return granted;
}

void
GapBandwidthResource::trim(Tick before)
{
    while (head_ < busy_.size() && busy_[head_].end <= before)
        ++head_;
    // Compact once the expired prefix dominates, so the vector stays
    // bounded by the live working set instead of growing forever.
    if (head_ > 16 && head_ * 2 > busy_.size()) {
        busy_.erase(busy_.begin(),
                    busy_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

void
GapBandwidthResource::reset()
{
    busy_.clear();
    head_ = 0;
    busyTicks_ = 0;
    bytesServed_ = 0;
}

Reservation
SerialResource::acquire(Tick earliest, Tick duration)
{
    const Tick start = std::max(earliest, busyUntil_);
    busyUntil_ = start + duration;
    busyTicks_ += duration;
    return {start, busyUntil_};
}

void
SerialResource::reset()
{
    busyUntil_ = 0;
    busyTicks_ = 0;
}

} // namespace adyna::des
