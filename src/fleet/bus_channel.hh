/**
 * @file
 * BusChannel — one monitored wire of a bus: the fabricated line, its
 * operating environment, its enrollment, and the per-channel
 * Authenticator resilience state (retry / vote / degradation ladder).
 *
 * Extracted from the old single-line DivotSystem so the fleet layer
 * can own N of these behind one ChannelScheduler while DivotSystem
 * remains a thin one-channel compatibility facade. A channel knows
 * nothing about its siblings: scheduling, instrument-pool
 * multiplexing, and score fusion live in fleet/channel_scheduler.hh
 * and fleet/fleet_auth.hh.
 */

#ifndef DIVOT_FLEET_BUS_CHANNEL_HH
#define DIVOT_FLEET_BUS_CHANNEL_HH

#include <memory>
#include <optional>
#include <string>

#include "auth/authenticator.hh"
#include "txline/environment.hh"
#include "txline/manufacturing.hh"
#include "txline/tamper.hh"
#include "txline/txline.hh"
#include "util/rng.hh"

namespace divot {

/** Per-channel configuration (also the DivotSystem quickstart
 *  config — core/divot_system.hh aliases it). */
struct BusChannelConfig
{
    double lineLength = 0.25;        //!< meters (paper prototype)
    double segmentLength = 0.5e-3;   //!< spatial step
    ProcessParams process;           //!< fabrication statistics
    ItdrConfig itdr;                 //!< instrument configuration
    AuthConfig auth;                 //!< thresholds
    EnvironmentConditions environment; //!< operating conditions
    std::size_t enrollReps = 16;
    std::string name = "bus0";
};

/**
 * One protected wire with its authenticator and environment.
 */
class BusChannel
{
  public:
    /**
     * Fabricates the line and builds the instrument (does not enroll
     * yet).
     */
    BusChannel(BusChannelConfig config, Rng rng);

    /** Calibrate: measure and store the enrollment fingerprint. */
    void calibrate();

    /**
     * One monitoring round against the line in its current physical
     * state (including any staged attack and the environment),
     * advancing the channel's own wall clock — the standalone
     * (facade) path.
     */
    AuthVerdict monitorOnce();

    /**
     * One monitoring round at an externally supplied wall-clock time
     * — the scheduler path: the fleet decides when this channel gets
     * an instrument, so measurement times follow the fleet's
     * precomputed tick schedule, not the channel's own clock. Does
     * not advance elapsed().
     */
    AuthVerdict monitorAt(double wall_clock);

    /** Stage an attack: the line changes from the next round on. */
    void stageAttack(const TamperTransform &attack);

    /** Remove the staged attack (wire-taps leave their scar). */
    void clearAttack();

    /** @return the pristine fabricated line. */
    const TransmissionLine &line() const { return pristine_; }

    /** @return the line as it currently physically exists. */
    const TransmissionLine &currentLine() const { return current_; }

    /** @return the authenticator. */
    const Authenticator &authenticator() const { return *auth_; }

    /** @return current authenticator lifecycle state. */
    AuthState state() const { return auth_->state(); }

    /** @name Enrollment hydrate/evict hooks (fleet store layer). */
    ///@{
    /** @return true while the enrollment fingerprint is in memory. */
    bool enrollmentResident() const
    {
        return auth_->enrollmentResident();
    }

    /** @return resident footprint of the enrollment data, bytes. */
    std::size_t enrollmentBytes() const
    {
        return auth_->enrollmentBytes();
    }

    /** Evict the enrollment from memory (verdict-invisible). */
    void releaseEnrollment() { auth_->releaseEnrollment(); }

    /** Rehydrate a previously evicted enrollment (verdict-invisible:
     *  no window/state reset — see Authenticator::restoreEnrollment). */
    void restoreEnrollment(Fingerprint fp, Waveform nominal)
    {
        auth_->restoreEnrollment(std::move(fp), std::move(nominal));
    }

    /** Demote to PendingReenroll after unrecoverable storage damage;
     *  @return the synthetic verdict to feed into fleet fusion. */
    AuthVerdict markPendingReenroll()
    {
        return auth_->markPendingReenroll();
    }
    ///@}

    /** @return measurement wall-clock accumulated so far, seconds. */
    double elapsed() const { return wall_; }

    /** @return channel configuration. */
    const BusChannelConfig &config() const { return config_; }

    /** @return channel label. */
    const std::string &name() const { return config_.name; }

    /** @return predicted duration of one monitoring round including
     *  the inter-round gap, seconds. */
    double roundDuration() const;

    /** @return this channel's reflection-trace cache (hit/miss/
     *  eviction accounting). */
    const TraceCache &traceCache() const
    {
        return auth_->instrument().traceCache();
    }

    /**
     * Attach a fault injector to this channel's instrument (campaign
     * hook; nullptr detaches). Not owned; must outlive the channel.
     */
    void attachFaultInjector(FaultInjector *injector)
    {
        auth_->attachFaultInjector(injector);
    }

    /**
     * Attach a telemetry sink to this channel's authenticator and
     * instrument (metrics land under "auth.<name>" / "itdr.<name>").
     * Not owned; must outlive the channel.
     */
    void attachTelemetry(Telemetry *telemetry)
    {
        auth_->attachTelemetry(telemetry);
    }

  private:
    BusChannelConfig config_;
    Rng rng_;
    TransmissionLine pristine_;
    TransmissionLine current_;
    std::unique_ptr<Authenticator> auth_;
    std::unique_ptr<Environment> env_;
    std::unique_ptr<NoiseSource> emi_;
    double wall_ = 0.0;
    bool wireTapScar_ = false;
    std::optional<WireTap> lastWireTap_;
};

} // namespace divot

#endif // DIVOT_FLEET_BUS_CHANNEL_HH
