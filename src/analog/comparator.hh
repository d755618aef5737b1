/**
 * @file
 * 1-bit comparator model — the entire analog front-end of the iTDR.
 *
 * The paper's key observation (Section II-B) is that a comparator
 * with Gaussian input-referred noise is not a defect but a feature:
 * the probability of output 1,
 *
 *     p{Y=1} = p{V_sig - V_ref > V_noise} = Phi((V_sig - V_ref)/sigma),
 *
 * is a smooth, invertible function of the analog input, so counting
 * 1s over repeated trials *is* an analog-to-digital conversion (APC)
 * with resolution set by the trial count rather than by a flash-ADC
 * ladder. The model includes input offset and a finite-bandwidth
 * metastability band to keep it honest about real silicon.
 */

#ifndef DIVOT_ANALOG_COMPARATOR_HH
#define DIVOT_ANALOG_COMPARATOR_HH

#include <cstddef>
#include <vector>

#include "itdr/kernels/kernels.hh"
#include "itdr/kernels/soa.hh"
#include "util/rng.hh"

namespace divot {

/** Static electrical parameters of the comparator. */
struct ComparatorParams
{
    double noiseSigma = 0.5e-3;    //!< input-referred noise, volts RMS
    double inputOffset = 0.0;      //!< static offset voltage, volts
    double metastableBand = 0.0;   //!< |dV| below which output is a
                                   //!< coin flip (metastability), volts
};

/**
 * Sampled comparator: evaluates sign(V+ - V- + noise) at a trigger.
 */
class Comparator
{
  public:
    /**
     * @param params electrical parameters
     * @param rng    dedicated random stream (noise + metastability)
     */
    Comparator(ComparatorParams params, Rng rng);

    /**
     * One strobed comparison.
     *
     * @param v_sig voltage on the positive input
     * @param v_ref voltage on the negative (reference) input
     * @return true when the noisy difference is positive
     */
    bool strobe(double v_sig, double v_ref);

    /**
     * A batch of strobes of one signal voltage against a reference
     * sequence — the APC inner loop of a full ETS bin. The noise pairs
     * are drawn in one block (Rng::polarPairs) and counted by the
     * kernel table's polarStrobeHits, consuming exactly the same
     * random draws as n scalar strobe() calls and counting the same
     * hits on every target (so a batch and a scalar sweep leave the
     * comparator in the same state). A normal cached by an earlier
     * draw, and the last strobe of an odd remainder, go through
     * strobe(). With a nonzero metastable band the batch falls back to
     * per-strobe evaluation to preserve the draw order.
     *
     * @param v_sig   voltage on the positive input (common to the batch)
     * @param v_ref   n reference voltages, one per strobe
     * @param n       number of strobes
     * @param kernels the instrument's kernel table (by default the
     *                scalar one, the reference every target matches)
     * @return number of strobes that produced output 1
     */
    unsigned strobeBatch(double v_sig, const double *v_ref, std::size_t n,
                         const StrobeKernels &kernels =
                             *scalarStrobeKernels());

    /**
     * Analytic strobe aggregate — the exact-binomial shortcut of the
     * APC sum (paper Eq. 1): each distinct Vernier reference level j
     * sees `per_level_trials` i.i.d. strobes whose hit count is
     * Binomial(per_level_trials, p_j) with p_j the analytic output-1
     * probability at that level, so the whole bin is sampled with
     * `levels` binomial draws instead of `levels * per_level_trials`
     * Gaussians. Statistically equivalent to strobeBatch but NOT
     * draw-compatible: it consumes a different (shorter) slice of the
     * comparator's stream, which is the point. A nonzero metastable
     * band is folded in analytically (p_j = 1/2 inside the band).
     *
     * @param v_sig            voltage on the positive input
     * @param ref_levels       the bin's distinct reference voltages
     * @param levels           number of distinct levels
     * @param per_level_trials strobes per level
     * @return number of strobes (out of levels * per_level_trials)
     *         that produced output 1
     */
    unsigned strobeAnalytic(double v_sig, const double *ref_levels,
                            std::size_t levels,
                            unsigned per_level_trials);

    /**
     * Whole-sweep analytic strobe in structure-of-arrays form: one
     * kernel call per stage instead of one strobeAnalytic call per
     * bin. `soa.vSig` carries the per-bin signal voltages on entry;
     * `ref_levels` is the bins x levels reference grid (row-major);
     * `soa.hits` carries the per-bin hit counts on return (the other
     * arenas are scratch, fully overwritten).
     *
     * With the scalar kernel set this performs exactly the libm calls
     * and Rng draws of `bins` sequential strobeAnalytic calls, in the
     * same order — bit-identical results and final comparator state.
     * Vector kernel sets keep the draw *schedule* (which lanes
     * consume a uniform, in what order) but may round interior
     * probabilities differently; see DESIGN.md §13.
     *
     * Requires a zero metastable band: the analytic band fold
     * (p_j = 1/2 inside the band) is a per-lane branch the grid
     * kernels do not model, so callers with a band keep the per-bin
     * strobeAnalytic loop.
     */
    void strobeAnalyticSoA(const StrobeKernels &kernels,
                           const double *ref_levels, std::size_t bins,
                           std::size_t levels,
                           unsigned per_level_trials, StrobeSoA &soa);

    /**
     * Exact analytic probability of output 1 for given inputs — the
     * ground truth the Monte-Carlo strobes converge to; used by
     * reconstruction math and tests.
     */
    double probabilityHigh(double v_sig, double v_ref) const;

    /** @return input-referred noise sigma in volts. */
    double noiseSigma() const { return params_.noiseSigma; }

    /** @return comparator parameter set. */
    const ComparatorParams &params() const { return params_; }

  private:
    ComparatorParams params_;
    Rng rng_;
    std::vector<double> noiseScratch_;  //!< batch polar pairs
};

} // namespace divot

#endif // DIVOT_ANALOG_COMPARATOR_HH
