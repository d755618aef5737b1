/**
 * @file
 * Portable scalar strobe kernels — the reference implementation every
 * vector target is tested against, and the bit-identity anchor: these
 * loops perform exactly the libm calls and Rng draws of the
 * pre-kernel Binomial engine (Comparator::strobeAnalytic +
 * Rng::binomial), in the same order, so a scalar-kernel measurement
 * reproduces the pre-kernel engine byte for byte. The polar strobe
 * count is the Sampled batch's arithmetic: one polarScale per pair,
 * then the sign of each strobe's noisy difference.
 */

#include "itdr/kernels/kernels.hh"

#include "util/math.hh"

namespace divot {

namespace {

void
scalarApcProbabilityGrid(const double *v_sig, double offset,
                         double inv_sigma, const double *ref, double *p,
                         std::size_t bins, std::size_t levels)
{
    for (std::size_t i = 0; i < bins; ++i) {
        const double base = v_sig[i] + offset;
        const double *r = ref + i * levels;
        double *row = p + i * levels;
        if (inv_sigma <= 0.0) {
            // Noiseless comparator: a hard step.
            for (std::size_t j = 0; j < levels; ++j)
                row[j] = base - r[j] > 0.0 ? 1.0 : 0.0;
        } else {
            for (std::size_t j = 0; j < levels; ++j)
                row[j] = normalCdfSaturated((base - r[j]) * inv_sigma);
        }
    }
}

void
scalarBinomialLane(Rng &rng, const double *p, uint64_t trials,
                   unsigned *k, std::size_t lanes)
{
    // Rng::binomial already implements the whole per-lane contract
    // (degenerate lanes draw nothing, p > 1/2 flips, inversion walk
    // below the cutoff, normal cutoff above).
    for (std::size_t l = 0; l < lanes; ++l)
        k[l] = static_cast<unsigned>(rng.binomial(trials, p[l]));
}

void
scalarTilePeriodic(const double *period, std::size_t levels,
                   double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = period[i % levels];
}

unsigned
scalarPolarStrobeHits(const double *uv, const double *ref, std::size_t n,
                      double base, double sigma)
{
    unsigned hits = 0;
    for (std::size_t j = 0; j < n; j += 2) {
        const double m = polarScale(uv[j], uv[j + 1]);
        hits += base - ref[j] + sigma * (uv[j] * m) > 0.0 ? 1u : 0u;
        hits += base - ref[j + 1] + sigma * (uv[j + 1] * m) > 0.0 ? 1u : 0u;
    }
    return hits;
}

const StrobeKernels kScalarKernels = {
    SimdTarget::Scalar,
    "scalar",
    &scalarApcProbabilityGrid,
    &scalarBinomialLane,
    &scalarTilePeriodic,
    &scalarPolarStrobeHits,
};

} // namespace

const StrobeKernels *
scalarStrobeKernels()
{
    return &kScalarKernels;
}

} // namespace divot
