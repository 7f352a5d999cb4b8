/**
 * @file
 * Brute-force reference for des::GapBandwidthResource: a plain sorted
 * list of granted intervals, searched first-fit from index 0 on every
 * request. It keeps no expired-prefix head, never trims, and never
 * merges touching intervals, so it shares none of the production
 * class's shortcuts; only the grant rule is the same.
 */

#ifndef ADYNA_TESTS_GAP_ORACLE_HH
#define ADYNA_TESTS_GAP_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "des/resource.hh"

namespace adyna::oracle {

class GapOracle
{
  public:
    explicit GapOracle(double bytes_per_tick) : rate_(bytes_per_tick) {}

    /** The earliest idle gap of ceil(bytes / rate) ticks starting no
     * earlier than @p earliest, for @p bytes > 0. (Zero-byte grants
     * are left out: an empty grant can land on the boundary of two
     * touching intervals, which the production class merges.) */
    des::Reservation
    acquire(Tick earliest, Bytes bytes)
    {
        const auto dur = static_cast<Tick>(
            std::ceil(static_cast<double>(bytes) / rate_));
        Tick candidate = earliest;
        std::size_t at = 0;
        for (; at < busy_.size(); ++at) {
            if (candidate + dur <= busy_[at].start)
                break;
            candidate = std::max(candidate, busy_[at].end);
        }
        const des::Reservation granted{candidate, candidate + dur};
        busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(at),
                     granted);
        busyTicks_ += dur;
        bytesServed_ += bytes;
        return granted;
    }

    Tick busyTicks() const { return busyTicks_; }
    Bytes bytesServed() const { return bytesServed_; }

  private:
    double rate_;
    std::vector<des::Reservation> busy_;
    Tick busyTicks_ = 0;
    Bytes bytesServed_ = 0;
};

} // namespace adyna::oracle

#endif // ADYNA_TESTS_GAP_ORACLE_HH
