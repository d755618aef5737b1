#include "itdr/pdm.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace divot {

namespace {

TriangleWave
makeWave(const PdmConfig &config, double clock_frequency)
{
    // Checked before the triangle is derived from it, so a bad clock
    // is reported as the clock rather than as the triangle frequency.
    if (!std::isfinite(clock_frequency) || clock_frequency <= 0.0)
        divot_fatal("PDM clock frequency must be finite and positive "
                    "(got %g)", clock_frequency);
    // p * f_m = q * f_s  =>  f_m = (q/p) * f_s. When disabled the wave
    // object is unused; build a placeholder at f_s.
    const double fm = config.enabled
        ? clock_frequency * static_cast<double>(config.q) /
          static_cast<double>(config.p)
        : clock_frequency;
    return TriangleWave(config.amplitude, fm, config.center,
                        config.rcShaping);
}

} // namespace

PdmSchedule::PdmSchedule(PdmConfig config, double clock_frequency)
    : config_(config), clockFrequency_(clock_frequency),
      wave_(makeWave(config, clock_frequency))
{
    if (!std::isfinite(config.fixedReference))
        divot_fatal("PDM fixedReference must be finite (got %g)",
                    config.fixedReference);
    if (config.enabled && !coprime(config.p, config.q)) {
        divot_fatal("PDM Vernier ratio p=%u q=%u not coprime: the "
                    "reference pattern repeats early and the scheme "
                    "degenerates (Section II-C)", config.p, config.q);
    }
    if (config.enabled && config.p == 0)
        divot_fatal("PDM p must be >= 1");
}

double
PdmSchedule::referenceAt(double t) const
{
    if (!config_.enabled)
        return config_.fixedReference;
    return wave_.valueAt(t);
}

std::vector<double>
PdmSchedule::levelsAt(double t0) const
{
    if (!config_.enabled)
        return {config_.fixedReference};
    return vernierReferenceLevels(wave_, config_.p, config_.q, t0);
}

unsigned
PdmSchedule::levelCount() const
{
    return config_.enabled ? config_.p : 1u;
}

double
PdmSchedule::modulationFrequency() const
{
    return config_.enabled ? wave_.frequency() : 0.0;
}

} // namespace divot
