/**
 * @file
 * Numerical helpers: the standard normal CDF and its inverse, linear
 * interpolation grids, and small conveniences used across the library.
 *
 * The inverse normal CDF (Acklam's rational approximation refined with
 * one Halley step) is the workhorse of analog-to-probability
 * conversion: Eq. (2) of the paper reconstructs V_sig from a measured
 * probability through CDF^{-1}.
 */

#ifndef DIVOT_UTIL_MATH_HH
#define DIVOT_UTIL_MATH_HH

#include <cstddef>
#include <vector>

namespace divot {

/** Standard normal cumulative distribution function Phi(x). */
double normalCdf(double x);

/**
 * Phi(z) with the APC's exact +-8 sigma saturation: past 8 sigma the
 * tail mass (< 1e-15) is unobservable at any realistic trial count,
 * and the saturated value must be an *exact* 0.0 / 1.0 — a binomial
 * draw at a saturated probability consumes no random draw, so an
 * almost-0 would silently desynchronize the stream. This is the
 * single definition both the scalar strobe path and the scalar SIMD
 * kernel share.
 */
inline double
normalCdfSaturated(double z)
{
    return z <= -8.0 ? 0.0 : z >= 8.0 ? 1.0 : normalCdf(z);
}

/** Standard normal probability density function phi(x). */
double normalPdf(double x);

/**
 * Inverse standard normal CDF.
 *
 * @param p probability in (0, 1); values at or beyond the open
 *          interval are clamped to a tiny epsilon away from 0/1 so
 *          that saturated APC counters yield large-but-finite voltages.
 * @return x such that Phi(x) = p
 */
double normalInvCdf(double p);

/**
 * Evenly spaced grid of n points covering [lo, hi] inclusive.
 * n == 1 yields {lo}.
 */
std::vector<double> linspace(double lo, double hi, std::size_t n);

/** Clamp x into [lo, hi]. */
double clampTo(double x, double lo, double hi);

/** Linear interpolation of tabulated (xs, ys) at x; clamps at ends. */
double interpLinear(const std::vector<double> &xs,
                    const std::vector<double> &ys, double x);

/** Greatest common divisor of two positive integers. */
unsigned long long gcdU64(unsigned long long a, unsigned long long b);

/** @return true when a and b are coprime (gcd == 1). */
bool coprime(unsigned long long a, unsigned long long b);

/**
 * Invert a monotone increasing function on [lo, hi] by bisection.
 *
 * Used to invert the PDM mixture CDF, which has no closed form.
 *
 * @param f       monotone non-decreasing callable double->double
 * @param target  value to invert
 * @param lo,hi   bracketing interval
 * @param iters   bisection iterations (53 gives full double precision)
 */
template <typename F>
double
invertMonotone(F &&f, double target, double lo, double hi,
               int iters = 80)
{
    double a = lo, b = hi;
    for (int i = 0; i < iters; ++i) {
        const double mid = 0.5 * (a + b);
        if (f(mid) < target)
            a = mid;
        else
            b = mid;
    }
    return 0.5 * (a + b);
}

} // namespace divot

#endif // DIVOT_UTIL_MATH_HH
