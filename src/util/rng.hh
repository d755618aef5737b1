/**
 * @file
 * Deterministic, seedable random-number generation.
 *
 * Every stochastic component of the simulator draws from an Rng object
 * so that experiments are exactly reproducible given a seed. The core
 * generator is xoshiro256++ (public domain, Blackman & Vigna), chosen
 * for speed and quality; distribution transforms are implemented on
 * top of it so results do not depend on the C++ standard library's
 * unspecified distribution algorithms.
 */

#ifndef DIVOT_UTIL_RNG_HH
#define DIVOT_UTIL_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace divot {

/**
 * The polar method's scale for an accepted pair (u, v): its two
 * normals are u * m and v * m. Recomputes s = u*u + v*v, which rounds
 * to the value the rejection test accepted (ISO C++ fuses no
 * multiply-add). Rng::gaussian() and the Sampled strobe kernels share
 * this one expression, so their normals agree bit for bit.
 */
inline double
polarScale(double u, double v)
{
    const double s = u * u + v * v;
    return std::sqrt(-2.0 * std::log(s) / s);
}

/**
 * Seedable pseudo-random generator with the distribution draws the
 * simulator needs (uniform, Gaussian, integer ranges).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return next raw 64-bit value. Defined inline (with uniform())
     *  so hot draw loops — the SIMD strobe kernels consume one
     *  uniform per non-degenerate lane — pay no call overhead. */
    uint64_t next()
    {
        const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** @return uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0,1)
        return (next() >> 11) * 0x1.0p-53;
    }

    /** @return uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * @return standard normal draw (Box-Muller with caching; exact
     * distribution independent of platform libm quirks).
     */
    double gaussian();

    /** @return normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** @return uniform integer in [0, bound) ; bound must be > 0. */
    uint64_t uniformInt(uint64_t bound);

    /** @return true with probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /**
     * Draw from Binomial(n, p) — the number of successes in n
     * independent trials of probability p. This is the analytic
     * strobe engine's workhorse: one binomial draw replaces n
     * Gaussian draws in the APC hot loop.
     *
     * The algorithm selection is fixed (not platform- or
     * libm-version-adaptive) so streams are reproducible: degenerate
     * cases (n == 0, p <= 0, p >= 1) consume no draws; p > 1/2 is
     * mapped to n - Binomial(n, 1-p); small n uses exact CDF
     * inversion (one uniform, pmf recurrence); large n uses the
     * rounded-and-clamped normal cutoff approximation (one Gaussian).
     * The small/large seam is `binomialInversionCutoff`.
     *
     * @param n number of trials
     * @param p per-trial success probability (clamped to [0,1])
     */
    uint64_t binomial(uint64_t n, double p);

    /** Largest n served by exact CDF inversion in binomial(). */
    static constexpr uint64_t binomialInversionCutoff = 64;

    /**
     * The exact CDF-inversion walk of binomial() given a pre-drawn
     * uniform: pmf(0) = (1-p)^n by exponentiation-by-squaring, then
     * the recurrence pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p) until
     * the cumulative mass passes u. Pure IEEE multiplies/divides in a
     * fixed order, so the result cannot drift with libm versions —
     * the vectorized strobe kernels mirror these operations lane-wise
     * and therefore reproduce this function bit for bit.
     *
     * Preconditions: 0 < p <= 1/2, 1 <= n <= binomialInversionCutoff.
     */
    static uint64_t binomialInvert(double u, uint64_t n, double p);

    /**
     * Fork a child generator whose stream is independent of this one.
     * Used to give every Tx-line / iTDR its own stream so adding a
     * component never perturbs another component's draws.
     *
     * @param tag arbitrary domain-separation tag
     */
    Rng fork(uint64_t tag);

    /**
     * Derive a child generator from this generator's *current state*
     * and the tag, without advancing this stream. Unlike fork(),
     * repeated calls with the same tag return identical children, and
     * the derivation is independent of how many other children were
     * created in between — the property that lets parallel measurement
     * tasks seed themselves from (line, wire, repetition) indices and
     * still reproduce the serial run bit-for-bit.
     *
     * @param tag domain-separation tag; distinct tags give streams
     *            that are independent for all practical purposes
     */
    Rng forkStable(uint64_t tag) const;

    /**
     * Draw `pairs` accepted polar pairs into uv[0 .. 2*pairs): the
     * uniforms, their order and the final state of `pairs` rejection
     * loops of gaussian(), without their branches. Every attempt
     * writes its (u, v) and the write position advances only past an
     * accepted one. Pair k's normals are uv[2k] * m and uv[2k+1] * m
     * with m = polarScale(uv[2k], uv[2k+1]); a cached normal is
     * neither read nor left behind.
     */
    void polarPairs(double *uv, std::size_t pairs)
    {
        std::size_t k = 0;
        while (k < pairs) {
            // 2 * uniform() - 1, exactly: the doubled uniform is
            // (next() >> 11) * 2^-52, one multiply instead of two.
            const double u =
                static_cast<double>(next() >> 11) * 0x1.0p-52 - 1.0;
            const double v =
                static_cast<double>(next() >> 11) * 0x1.0p-52 - 1.0;
            const double s = u * u + v * v;
            uv[2 * k] = u;
            uv[2 * k + 1] = v;
            k += static_cast<std::size_t>(s < 1.0) &
                static_cast<std::size_t>(s != 0.0);
        }
    }

    /** @return whether the next gaussian() returns a cached normal
     *  (the second of a pair) instead of drawing a pair. */
    bool hasCachedNormal() const { return hasCachedNormal_; }

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace divot

#endif // DIVOT_UTIL_RNG_HH
