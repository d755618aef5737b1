#include "fleet/bus_channel.hh"

#include "itdr/budget.hh"
#include "signal/noise.hh"
#include "util/logging.hh"

namespace divot {

namespace {

// Fork tags unchanged from the original DivotSystem so a one-channel
// facade reproduces the pre-refactor draws bit for bit.
constexpr uint64_t kTagFabrication = 0x6001;
constexpr uint64_t kTagAuthenticator = 0x6002;
constexpr uint64_t kTagEnvironment = 0x6003;

// Pause between monitoring rounds on the standalone clock, seconds.
constexpr double kInterRoundGap = 100e-6;

TransmissionLine
fabricate(const BusChannelConfig &config, Rng &rng)
{
    ManufacturingProcess fab(config.process, rng.fork(kTagFabrication));
    auto z = fab.drawImpedanceProfile(config.lineLength,
                                      config.segmentLength);
    return TransmissionLine(std::move(z), config.segmentLength,
                            config.process.velocity,
                            config.process.nominalImpedance,
                            config.process.nominalImpedance +
                                rng.gaussian(0.0, 0.3),
                            config.process.lossNeperPerMeter,
                            config.name);
}

} // namespace

BusChannel::BusChannel(BusChannelConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng),
      pristine_(fabricate(config_, rng_)), current_(pristine_)
{
    auth_ = std::make_unique<Authenticator>(
        config_.auth, config_.itdr, rng_.fork(kTagAuthenticator),
        config_.name);
    env_ = std::make_unique<Environment>(config_.environment,
                                         rng_.fork(kTagEnvironment));
    if (config_.environment.emiAmplitude > 0.0) {
        emi_ = std::make_unique<SinusoidalInterference>(
            config_.environment.emiAmplitude,
            config_.environment.emiFrequencyHz);
    }
}

void
BusChannel::calibrate()
{
    auth_->enroll(pristine_, config_.enrollReps);
    const MeasurementBudget budget = predictBudget(
        config_.itdr, pristine_.roundTripDelay());
    wall_ += static_cast<double>(config_.enrollReps) *
        budget.expectedDuration;
}

double
BusChannel::roundDuration() const
{
    const MeasurementBudget budget = predictBudget(
        config_.itdr, pristine_.roundTripDelay());
    return budget.expectedDuration + kInterRoundGap;
}

AuthVerdict
BusChannel::monitorAt(double wall_clock)
{
    // Telemetry events from this round carry the caller's schedule
    // (fleet slot * tick, or the standalone clock via monitorOnce).
    auth_->setWallClock(wall_clock);
    const TransmissionLine snap = env_->snapshot(current_, wall_clock);
    return auth_->checkRound(snap, emi_.get());
}

AuthVerdict
BusChannel::monitorOnce()
{
    const AuthVerdict verdict = monitorAt(wall_);
    wall_ += roundDuration();
    return verdict;
}

void
BusChannel::stageAttack(const TamperTransform &attack)
{
    current_ = attack.apply(wireTapScar_ && lastWireTap_
                                ? lastWireTap_->applyRemoved(pristine_)
                                : pristine_);
    if (const auto *tap = dynamic_cast<const WireTap *>(&attack)) {
        lastWireTap_ = *tap;
        wireTapScar_ = true;
    }
    divot_inform("staged attack on '%s': %s", config_.name.c_str(),
                 attack.describe().c_str());
}

void
BusChannel::clearAttack()
{
    if (wireTapScar_ && lastWireTap_) {
        // Soldering damage is permanent (Section IV-E).
        current_ = lastWireTap_->applyRemoved(pristine_);
    } else {
        current_ = pristine_;
    }
}

} // namespace divot
