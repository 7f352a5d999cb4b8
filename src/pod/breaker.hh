/**
 * @file
 * Per-chip circuit breaker for the pod router (DESIGN.md §15).
 *
 * The breaker watches cheap health-probe pings and end-to-end
 * checksum verdicts for one chip and decides whether the router may
 * keep admitting new work to it. Classic three-state machine:
 *
 *   Closed    — healthy; trips to Open when the EWMA of probe
 *               service times exceeds latencyTripFactor x the frozen
 *               calibration baseline, when errorTrip consecutive
 *               probes fail, or when sdcTrip silent-data-corruption
 *               detections accumulate.
 *   Open      — no new admissions (queued work keeps draining);
 *               after openCycles the next admits()/recordPing()
 *               moves to HalfOpen.
 *   HalfOpen  — admitting again on probation: halfOpenSuccesses
 *               consecutive healthy probes re-close the breaker; any
 *               failed, slow, or corrupted probe re-opens it.
 *
 * Everything is deterministic — state only moves on recordPing /
 * recordSdc / admits calls stamped with the simulated clock — so
 * breaker-driven runs replay exactly.
 */

#ifndef ADYNA_POD_BREAKER_HH
#define ADYNA_POD_BREAKER_HH

#include <cstdint>

#include "common/types.hh"

namespace adyna::pod {

/** Circuit-breaker policy knobs. */
struct BreakerConfig
{
    /** Trip when EWMA probe service time exceeds this multiple of
     * the calibration baseline. */
    double latencyTripFactor = 3.0;

    /** Healthy probes averaged into the frozen baseline before the
     * latency trip arms. */
    int calibrationPings = 3;

    /** EWMA smoothing weight of the newest probe sample. */
    double ewmaAlpha = 0.4;

    /** Consecutive failed probes that trip the breaker. */
    int errorTrip = 3;

    /** Cumulative SDC detections (since the last close) that trip
     * the breaker. */
    int sdcTrip = 3;

    /** Cooldown in the Open state before probing again. */
    Cycles openCycles = 2'000'000;

    /** Consecutive healthy probes that close a half-open breaker. */
    int halfOpenSuccesses = 2;
};

enum class BreakerState { Closed, Open, HalfOpen };

/** One chip's health state machine (see file comment). */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(BreakerConfig cfg) : cfg_(cfg) {}

    /**
     * Feed one health-probe result. @p service_ticks is the
     * chip-side service component of the ping round trip (the part
     * a straggler dilates); ignored when @p ok is false (probe
     * lost — dark chip or timed-out ping).
     */
    void recordPing(Tick now, double service_ticks, bool ok);

    /** Feed one detected silent-data-corruption on this chip's
     * payloads. */
    void recordSdc(Tick now);

    /**
     * The router may admit new work to this chip. Querying an Open
     * breaker past its cooldown moves it to HalfOpen (probation),
     * so admission resumes without a separate timer.
     */
    bool admits(Tick now);

    BreakerState state() const { return state_; }
    double baseline() const { return baseline_; }
    double ewma() const { return ewma_; }

    /** Closed → Open transitions (all causes). */
    std::uint64_t trips() const { return trips_; }
    /** HalfOpen → Open transitions (failed probation). */
    std::uint64_t reopens() const { return reopens_; }
    /** HalfOpen → Closed transitions (passed probation). */
    std::uint64_t closes() const { return closes_; }

  private:
    void open(Tick now, bool probation_failed);
    void maybeHalfOpen(Tick now);

    BreakerConfig cfg_;
    BreakerState state_ = BreakerState::Closed;

    /** Frozen mean of the first calibrationPings healthy probes. */
    double baseline_ = 0.0;
    double ewma_ = 0.0;
    int calibrated_ = 0;

    int consecutiveErrors_ = 0;
    int sdcCount_ = 0;
    int halfOpenStreak_ = 0;
    Tick openedAt_ = 0;

    std::uint64_t trips_ = 0;
    std::uint64_t reopens_ = 0;
    std::uint64_t closes_ = 0;
};

} // namespace adyna::pod

#endif // ADYNA_POD_BREAKER_HH
