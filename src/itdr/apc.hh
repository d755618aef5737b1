/**
 * @file
 * Analog-to-probability conversion (APC) math — Section II-B.
 *
 * With a single reference level V_ref and Gaussian input noise sigma,
 *
 *     p{Y=1} = Phi((V_sig - V_ref) / sigma)            (Eq. 1)
 *     V_sig  = V_ref + sigma * Phi^{-1}(p)             (Eq. 2)
 *
 * With PDM the reference cycles through L discrete levels, so the
 * effective CDF is the normalized mixture
 *
 *     p{Y=1} = (1/L) * sum_l Phi((V_sig - ref_l) / sigma),
 *
 * which is still strictly monotone in V_sig and therefore invertible
 * (numerically, by bisection). This header provides both directions
 * plus the sensitivity (the mixture PDF, Eq. 3) used to analyze the
 * linear dynamic range (Figs. 2 and 4).
 */

#ifndef DIVOT_ITDR_APC_HH
#define DIVOT_ITDR_APC_HH

#include <vector>

namespace divot {

/**
 * Probability of comparator output 1 for a mixture of reference
 * levels with Gaussian noise.
 *
 * @param v_sig  analog input voltage
 * @param levels reference voltages the PDM schedule cycles through
 * @param sigma  input-referred noise standard deviation (> 0)
 */
double apcMixtureCdf(double v_sig, const std::vector<double> &levels,
                     double sigma);

/**
 * Sensitivity d p / d V_sig of the mixture — the equivalent PDF
 * (Eq. 3). High sensitivity == high voltage resolution per trial.
 */
double apcMixturePdf(double v_sig, const std::vector<double> &levels,
                     double sigma);

/**
 * Invert the mixture CDF: recover V_sig from a measured probability.
 *
 * @param p      measured hit probability in [0, 1]; saturated values
 *               clamp to the edge of the invertible range
 * @param levels reference voltages
 * @param sigma  noise standard deviation (> 0)
 */
double apcReconstruct(double p, const std::vector<double> &levels,
                      double sigma);

/**
 * Precomputed inverse of the APC mixture CDF.
 *
 * The bisection in apcReconstruct costs dozens of Phi evaluations per
 * call; an iTDR reconstruction plan reconstructs every possible hit
 * count of every bin. This table samples the mixture CDF once on a
 * fine voltage grid and answers reconstructions with a binary search
 * plus linear interpolation; the plan keeps only the answers, one
 * row per bin — the reconstruction ROM a hardware implementation
 * would hold.
 */
class ApcInverseTable
{
  public:
    /**
     * @param levels reference voltages of the bin's PDM schedule
     * @param sigma  input-referred noise standard deviation
     * @param grid   number of table points
     */
    ApcInverseTable(const std::vector<double> &levels, double sigma,
                    std::size_t grid = 1024);

    /** Reconstruct V_sig from a measured hit probability. */
    double reconstruct(double p) const;

    /** @return lowest representable voltage. */
    double voltageLo() const { return vLo_; }

    /** @return highest representable voltage. */
    double voltageHi() const { return vHi_; }

  private:
    double vLo_, vHi_, dv_;
    /** cdf_.front() / cdf_.back(), duplicated inline so the saturated
     *  early-outs in reconstruct() never touch the grid. */
    double cdfFront_ = 0.0, cdfBack_ = 0.0;
    std::vector<double> cdf_;  //!< CDF at vLo_ + i * dv_
    /** Two-level search: dir_[b] = cdf_[b * dirStep_]. An interior
     *  reconstruct first brackets p in this ~32-entry directory, then
     *  binary-searches one dirStep_-wide window of cdf_ — same index
     *  as a whole-table lower_bound (the CDF is monotone), but ~2
     *  cache lines touched instead of ~10. */
    std::vector<double> dir_;
    std::size_t dirStep_ = 1;
};

/**
 * Width of the usable linear region of the mixture CDF: the span of
 * input voltages over which the sensitivity stays above `floor_frac`
 * of its peak value. For a single level this is ~2 sigma at
 * floor_frac = 0.6 (the paper's "APC is most effective within
 * 2 sigma"); PDM widens it roughly by the reference-level span.
 *
 * @param levels     reference voltages
 * @param sigma      noise standard deviation
 * @param floor_frac sensitivity floor as a fraction of peak
 */
double apcLinearRegionWidth(const std::vector<double> &levels,
                            double sigma, double floor_frac = 0.6);

} // namespace divot

#endif // DIVOT_ITDR_APC_HH
