/**
 * @file
 * Runtime bus authenticator + tamper monitor (Section III,
 * "Monitoring" and "Reaction to counter attacks").
 *
 * One Authenticator guards one bus interface. Each monitoring round
 * it takes a fresh IIP measurement, maintains a sliding average of
 * the last few rounds (the FIFO of IIP values the paper keeps on the
 * memory side), and evaluates two checks:
 *
 *   1. Authentication: similarity of the averaged fingerprint against
 *      the enrolled one — is this the line/module we calibrated with?
 *   2. Tamper: the E_xy error-function peak against the tamper
 *      threshold — did the line itself change (probe, tap, Trojan)?
 *
 * The verdict feeds the ReactionPolicy (block access, halt memory
 * operations, raise an alarm).
 */

#ifndef DIVOT_AUTH_AUTHENTICATOR_HH
#define DIVOT_AUTH_AUTHENTICATOR_HH

#include <deque>
#include <string>

#include "auth/verdict.hh"
#include "fingerprint/fingerprint.hh"
#include "fingerprint/localize.hh"
#include "itdr/itdr.hh"
#include "signal/noise.hh"
#include "txline/txline.hh"

namespace divot {

/** Authenticator tuning. */
struct AuthConfig
{
    double similarityThreshold = 0.35; //!< accept-as-genuine floor
    double tamperThreshold = 5e-7;     //!< E_xy peak alarm level, V^2,
                                       //!< at a full averaging window
    std::size_t averageWindow = 16;    //!< measurements in the sliding
                                       //!< FIFO average
    double warmupSlack = 8.0;          //!< the effective threshold is
                                       //!< tamperThreshold*(1+slack/n)
                                       //!< while the window holds only
                                       //!< n measurements: the noise
                                       //!< variance of the averaged
                                       //!< IIP scales as 1/n, so a
                                       //!< half-filled FIFO needs a
                                       //!< proportionally higher bar
                                       //!< to avoid false alarms

    /** @name Resilience (vote-confirm, retry, degradation ladder). */
    ///@{
    unsigned confirmWindow = 3;    //!< N: fresh re-measurements taken
                                   //!< to confirm a candidate tamper
                                   //!< alarm; 0 restores the legacy
                                   //!< alarm-on-first-trip behavior
    unsigned confirmVotes = 2;     //!< M: votes (of the N) that must
                                   //!< independently see tamper before
                                   //!< TamperAlert is entered
    double voteThresholdScale = 2.5; //!< single-measurement vote bar =
                                   //!< tamperThreshold * this scale —
                                   //!< sits between single-shot noise
                                   //!< (~1x threshold) and the
                                   //!< weakest attack signature (~5x)
    unsigned maxRetries = 2;       //!< re-measure attempts when the
                                   //!< instrument reports unhealthy
    uint64_t retryBackoffCycles = 2048; //!< extra bus cycles yielded
                                   //!< before retry attempt k (linear
                                   //!< backoff: k * this)
    unsigned degradeAfterUnhealthy = 2;   //!< consecutive unhealthy
                                   //!< rounds before Degraded
    unsigned quarantineAfterUnhealthy = 5; //!< consecutive unhealthy
                                   //!< rounds before Quarantine
    double degradedThresholdScale = 2.0; //!< tamper/vote thresholds
                                   //!< are raised by this factor while
                                   //!< Degraded (fewer false alarms
                                   //!< from a shaky instrument)
    unsigned recoveryCleanRounds = 3; //!< consecutive healthy rounds
                                   //!< required to climb one rung of
                                   //!< the ladder back up
    ///@}
};

/**
 * Guards one bus interface with one iTDR.
 */
class Authenticator
{
  public:
    /**
     * @param config  thresholds and window
     * @param itdr    instrument configuration for this interface
     * @param rng     random stream
     * @param channel label for logs ("cpu.dimm0" etc.)
     */
    Authenticator(AuthConfig config, ItdrConfig itdr, Rng rng,
                  std::string channel = "bus");

    /**
     * Calibrate against the pristine line: measures, averages, and
     * stores the enrollment fingerprint; also derives the nominal
     * design response used for residual extraction.
     *
     * @param line pristine line at installation time
     * @param reps measurements to average (>= 1)
     */
    void enroll(const TransmissionLine &line, std::size_t reps = 16);

    /** Adopt an existing enrollment (e.g. loaded from EPROM). */
    void adoptEnrollment(Fingerprint fp, Waveform nominal);

    /**
     * Rehydrate a previously released enrollment without disturbing
     * the monitoring state: unlike adoptEnrollment, the averaging
     * window, lifecycle state, and streak counters are left exactly as
     * they were, so an evict/restore cycle is invisible to every
     * subsequent verdict. The caller owes us the same fingerprint that
     * releaseEnrollment() dropped (the store's job).
     */
    void restoreEnrollment(Fingerprint fp, Waveform nominal);

    /**
     * Drop the enrollment fingerprint and nominal response from
     * memory (fleet LRU eviction). Monitoring state is untouched;
     * checkRound must not run again until restoreEnrollment.
     */
    void releaseEnrollment();

    /** @return true while the enrollment is held in memory. */
    bool enrollmentResident() const { return enrolled_.valid(); }

    /** @return resident footprint of the enrollment data, bytes. */
    std::size_t enrollmentBytes() const;

    /**
     * Demote the channel to PendingReenroll: its durable enrollment
     * record is damaged beyond repair, so no verdict can be served
     * until an operator re-enrolls. Clears the window and the resident
     * enrollment, and returns the synthetic round verdict the fleet
     * layer feeds into fusion (unauthenticated, no evidence).
     */
    AuthVerdict markPendingReenroll();

    /**
     * One monitoring round against the line as it currently exists.
     *
     * @param current_line  line snapshot (possibly tampered/swapped)
     * @param extra_noise   optional EMI at the comparator input
     */
    AuthVerdict checkRound(const TransmissionLine &current_line,
                           NoiseSource *extra_noise = nullptr);

    /** @return current lifecycle state. */
    AuthState state() const { return state_; }

    /** @return enrollment fingerprint (valid after enroll). */
    const Fingerprint &enrolled() const { return enrolled_; }

    /** @return nominal response used for residual extraction. */
    const Waveform &nominal() const { return nominal_; }

    /** @return channel label. */
    const std::string &channel() const { return channel_; }

    /** @return monitoring rounds performed. */
    uint64_t rounds() const { return round_; }

    /** @return total bus cycles consumed by monitoring so far. */
    uint64_t busCyclesConsumed() const { return busCycles_; }

    /** @return the instrument (for budget inspection). */
    const ITdr &instrument() const { return itdr_; }

    /**
     * Attach a fault injector to the underlying instrument (campaign
     * hook; nullptr detaches). Not owned; must outlive this object.
     */
    void attachFaultInjector(FaultInjector *injector)
    {
        itdr_.attachFaultInjector(injector);
    }

    /** @return consecutive unhealthy rounds on the current streak. */
    unsigned unhealthyStreak() const { return consecutiveUnhealthy_; }

    /** @return candidate alarms voted down since enrollment. */
    uint64_t suppressedAlarms() const { return suppressedAlarms_; }

    /** @return window entries expunged as stale transient spikes. */
    uint64_t expungedVotes() const { return expungedVotes_; }

    /**
     * Attach a telemetry sink: rounds, verdicts, retries/backoff,
     * vote and suppression counts, and state-ladder transitions are
     * accounted under "auth.<channel>" (the instrument itself under
     * "itdr.<channel>"), with one event per state transition. Pass
     * nullptr (or a disabled Telemetry) to detach. Not owned; must
     * outlive this object.
     */
    void attachTelemetry(Telemetry *telemetry);

    /**
     * Stamp subsequent telemetry events with the caller's simulated
     * wall clock (the fleet scheduler's slot * tick). Defaults to 0
     * for standalone use, where the round ordinal still orders events.
     */
    void setWallClock(double seconds) { wallClock_ = seconds; }

  private:
    AuthConfig config_;
    ITdr itdr_;
    std::string channel_;
    AuthState state_ = AuthState::Unenrolled;
    Fingerprint enrolled_;
    Waveform nominal_;
    std::deque<Waveform> window_;  //!< recent raw IIPs (FIFO)
    uint64_t round_ = 0;
    uint64_t busCycles_ = 0;
    unsigned consecutiveUnhealthy_ = 0;
    unsigned cleanStreak_ = 0;     //!< healthy rounds toward recovery
    uint64_t suppressedAlarms_ = 0;
    uint64_t expungedVotes_ = 0;

    /** @name Telemetry plumbing (inert until attachTelemetry). */
    ///@{
    Telemetry *telemetry_ = nullptr;
    std::string tmPrefix_;
    Counter tmRounds_;
    Counter tmAuthOk_;
    Counter tmAuthFail_;
    Counter tmAlarms_;
    Counter tmSuppressed_;
    Counter tmVotesCast_;
    Counter tmVotesFor_;
    Counter tmRetries_;
    Counter tmBackoffCycles_;
    Counter tmExpunged_;
    Counter tmRecalibrations_;
    Counter tmUnhealthyRounds_;
    double wallClock_ = 0.0;
    ///@}

    Fingerprint averagedFingerprint() const;

    /** Transition the lifecycle state, accounting the edge. */
    void setState(AuthState next);

    /**
     * Drop every window entry whose single-measurement fingerprint
     * still trips `vote_bar` — the shared scrub run after a vote-down
     * and on every ladder climb back to Monitoring.
     *
     * @return entries removed
     */
    unsigned expungeStaleVotes(const TransmissionLine &line,
                               double vote_bar);

    /** Measure with bounded retry + linear bus-cycle backoff. */
    IipMeasurement measureWithRetry(const TransmissionLine &line,
                                    NoiseSource *extra_noise,
                                    unsigned &retries);

    /** One confirmation vote: does a fresh single measurement
     *  independently see tamper above the vote bar? Unhealthy
     *  measurements abstain (healthy=false). */
    bool confirmationVote(const TransmissionLine &line,
                          NoiseSource *extra_noise, double vote_bar,
                          bool &healthy);

    /** Ladder descent bookkeeping for an unhealthy round. */
    void noteUnhealthyRound();
};

} // namespace divot

#endif // DIVOT_AUTH_AUTHENTICATOR_HH
