#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace divot {

namespace {

/** splitmix64 — seed expander recommended by the xoshiro authors. */
uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

double
Rng::gaussian()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // The polar method (Marsaglia: no trig, well-behaved tails): a
    // pair uniform in the unit disc minus its center.
    double u, v, s;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = polarScale(u, v);
    cachedNormal_ = v * m;
    hasCachedNormal_ = true;
    return u * m;
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

uint64_t
Rng::uniformInt(uint64_t bound)
{
    if (bound == 0)
        divot_panic("uniformInt bound must be > 0");
    // Lemire-style rejection to avoid modulo bias.
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

uint64_t
Rng::binomial(uint64_t n, double p)
{
    // Degenerate cases consume no draws (part of the reproducibility
    // contract: a caller skipping saturated probabilities sees the
    // same stream as one passing them through).
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    // Symmetry reduction keeps the inversion walk short: sample the
    // failure count when successes are the majority.
    if (p > 0.5)
        return n - binomial(n, 1.0 - p);

    if (n <= binomialInversionCutoff) {
        // Exact CDF inversion against one uniform draw (the walk
        // itself is the shared, draw-free binomialInvert).
        return binomialInvert(uniform(), n, p);
    }

    // Large n: normal cutoff — round the matched-moment Gaussian and
    // clamp into [0, n]. One gaussian() draw, O(1) work; the O(1/n)
    // moment error is far below APC reconstruction noise at the trial
    // counts that reach this branch.
    const double mean = static_cast<double>(n) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    const double draw = std::floor(mean + sd * gaussian() + 0.5);
    if (draw <= 0.0)
        return 0;
    if (draw >= static_cast<double>(n))
        return n;
    return static_cast<uint64_t>(draw);
}

uint64_t
Rng::binomialInvert(double u, uint64_t n, double p)
{
    // Walk the pmf via the recurrence
    //   pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)
    // until the cumulative mass passes the uniform draw.
    const double odds = p / (1.0 - p);
    // pmf(0) = (1-p)^n by exponentiation-by-squaring: pure IEEE
    // multiplies, so the value (and hence the stream) cannot
    // drift with libm versions. p <= 1/2 here, so q >= 1/2 and
    // q^n underflows only at astronomically unlikely inputs (the
    // walk then returns a tail value, still in range).
    double pmf = 1.0;
    double q_pow = 1.0 - p;
    for (uint64_t e = n; e != 0; e >>= 1) {
        if (e & 1)
            pmf *= q_pow;
        q_pow *= q_pow;
    }
    double cum = pmf;
    uint64_t k = 0;
    while (cum <= u && k < n) {
        pmf *= odds * static_cast<double>(n - k) /
            static_cast<double>(k + 1);
        cum += pmf;
        ++k;
    }
    return k;
}

Rng
Rng::forkStable(uint64_t tag) const
{
    // Mix the full 256-bit state with the tag through splitmix64
    // rounds. No state advances, so the derivation commutes with any
    // interleaving of other forks/draws on this generator.
    uint64_t h = tag ^ 0x9e3779b97f4a7c15ULL;
    for (uint64_t word : s_) {
        uint64_t chain = h ^ word;
        h = splitmix64(chain);
    }
    return Rng(h);
}

Rng
Rng::fork(uint64_t tag)
{
    // Hash the child tag together with fresh output from this stream so
    // that (a) children with different tags differ and (b) successive
    // forks with the same tag differ.
    uint64_t mix = next() ^ (tag * 0xd6e8feb86659fd93ULL);
    return Rng(mix);
}

} // namespace divot
