/**
 * @file
 * Quasi-triangle modulation source for PDM (Section II-C).
 *
 * The paper generates the probability-density-modulation reference
 * from a digital output toggling at f_m through an RC
 * charge/discharge network — a cheap "quasi-triangle". When f_m and
 * the sampling clock f_s are relatively prime (in their rational
 * relation p*f_m = q*f_s), the Vernier effect presents the comparator
 * with p distinct reference levels at any fixed waveform time point,
 * turning the single-sigma Gaussian CDF into a much wider mixture CDF
 * (Fig. 3-4).
 */

#ifndef DIVOT_ANALOG_TRIANGLE_HH
#define DIVOT_ANALOG_TRIANGLE_HH

#include <vector>

#include "signal/waveform.hh"

namespace divot {

/**
 * The PDM reference-voltage source: an ideal or RC-shaped triangle
 * wave centered on `center` with peak deviation `amplitude`.
 */
class TriangleWave
{
  public:
    /**
     * @param amplitude  peak deviation from center, volts
     * @param frequency  modulation frequency f_m, Hz
     * @param center     mid-level, volts
     * @param rc_shaping 0 for an ideal triangle; otherwise the RC time
     *                   constant as a fraction of the half-period,
     *                   producing the exponential "quasi-triangle"
     */
    TriangleWave(double amplitude, double frequency, double center = 0.0,
                 double rc_shaping = 0.0);

    /** Instantaneous reference voltage at absolute time t. */
    double valueAt(double t) const;

    /** @return modulation frequency f_m in Hz. */
    double frequency() const { return frequency_; }

    /** @return peak deviation in volts. */
    double amplitude() const { return amplitude_; }

    /** @return mid-level in volts. */
    double center() const { return center_; }

    /** Sample one full period at the given dt. */
    Waveform sampledPeriod(double dt) const;

  private:
    double amplitude_;
    double frequency_;
    double center_;
    double rcShaping_;
    // RC-shaping constants, fixed at construction (unused for the
    // ideal triangle): half-periods per time constant, and the
    // steady-state crest the shape is normalized by (the trough is
    // its negative).
    double rcK_ = 0.0;
    double rcCrest_ = 0.0;

    /** Ideal triangle in [-1, 1] at phase u in [0, 1). */
    double idealShape(double u) const;
};

/**
 * The discrete Vernier reference schedule: with p * f_m = q * f_s and
 * gcd(p, q) = 1, the reference voltage seen at a fixed waveform time
 * across successive repetitions cycles through exactly p distinct
 * levels. This helper enumerates them (Fig. 3's V_ref0..V_ref4 for
 * p=5, q=6).
 *
 * @param wave triangle source
 * @param p    modulation-period count in the common period
 * @param q    sample-period count in the common period
 * @param t0   waveform-relative time point being sampled
 * @return the p reference voltages in repetition order
 */
std::vector<double> vernierReferenceLevels(const TriangleWave &wave,
                                           unsigned p, unsigned q,
                                           double t0);

} // namespace divot

#endif // DIVOT_ANALOG_TRIANGLE_HH
