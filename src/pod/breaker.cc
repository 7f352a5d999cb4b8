#include "pod/breaker.hh"

namespace adyna::pod {

void
CircuitBreaker::open(Tick now, bool probation_failed)
{
    state_ = BreakerState::Open;
    openedAt_ = now;
    halfOpenStreak_ = 0;
    consecutiveErrors_ = 0;
    if (probation_failed)
        ++reopens_;
    else
        ++trips_;
}

void
CircuitBreaker::maybeHalfOpen(Tick now)
{
    if (state_ == BreakerState::Open &&
        now >= openedAt_ + cfg_.openCycles) {
        state_ = BreakerState::HalfOpen;
        halfOpenStreak_ = 0;
    }
}

void
CircuitBreaker::recordPing(Tick now, double service_ticks, bool ok)
{
    maybeHalfOpen(now);
    if (!ok) {
        ++consecutiveErrors_;
        if (state_ == BreakerState::HalfOpen)
            open(now, /*probation_failed=*/true);
        else if (state_ == BreakerState::Closed &&
                 consecutiveErrors_ >= cfg_.errorTrip)
            open(now, /*probation_failed=*/false);
        return;
    }
    consecutiveErrors_ = 0;

    if (calibrated_ < cfg_.calibrationPings) {
        // Baseline calibration: a frozen mean of the first healthy
        // probes, taken before any trip can arm so a straggler
        // window later is judged against the chip's own healthy
        // service time.
        baseline_ = (baseline_ * calibrated_ + service_ticks) /
                    (calibrated_ + 1);
        ewma_ = baseline_;
        ++calibrated_;
        if (state_ == BreakerState::HalfOpen &&
            ++halfOpenStreak_ >= cfg_.halfOpenSuccesses) {
            state_ = BreakerState::Closed;
            ++closes_;
            sdcCount_ = 0;
        }
        return;
    }

    const double limit = cfg_.latencyTripFactor * baseline_;
    if (state_ == BreakerState::HalfOpen) {
        // Probation judges the instantaneous sample: the EWMA is
        // still poisoned by the slow window that tripped us.
        if (service_ticks <= limit) {
            ewma_ = service_ticks;
            if (++halfOpenStreak_ >= cfg_.halfOpenSuccesses) {
                state_ = BreakerState::Closed;
                ++closes_;
                sdcCount_ = 0;
            }
        } else {
            open(now, /*probation_failed=*/true);
        }
        return;
    }

    ewma_ = (1.0 - cfg_.ewmaAlpha) * ewma_ +
            cfg_.ewmaAlpha * service_ticks;
    if (state_ == BreakerState::Closed && baseline_ > 0.0 &&
        ewma_ > limit)
        open(now, /*probation_failed=*/false);
}

void
CircuitBreaker::recordSdc(Tick now)
{
    maybeHalfOpen(now);
    ++sdcCount_;
    if (state_ == BreakerState::HalfOpen)
        open(now, /*probation_failed=*/true);
    else if (state_ == BreakerState::Closed &&
             sdcCount_ >= cfg_.sdcTrip)
        open(now, /*probation_failed=*/false);
}

bool
CircuitBreaker::admits(Tick now)
{
    maybeHalfOpen(now);
    return state_ != BreakerState::Open;
}

} // namespace adyna::pod
