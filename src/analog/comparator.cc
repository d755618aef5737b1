#include "analog/comparator.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace divot {

Comparator::Comparator(ComparatorParams params, Rng rng)
    : params_(params), rng_(rng)
{
    // NaN fails every comparison, so each check names finiteness.
    if (!std::isfinite(params.noiseSigma) || params.noiseSigma < 0.0)
        divot_fatal("comparator noise sigma must be finite and >= 0 "
                    "(got %g)",
                    params.noiseSigma);
    if (!std::isfinite(params.metastableBand) ||
        params.metastableBand < 0.0)
        divot_fatal("comparator metastable band must be finite and >= 0 "
                    "(got %g)",
                    params.metastableBand);
    if (!std::isfinite(params.inputOffset))
        divot_fatal("comparator input offset must be finite (got %g)",
                    params.inputOffset);
}

bool
Comparator::strobe(double v_sig, double v_ref)
{
    const double dv = v_sig + params_.inputOffset - v_ref;
    if (params_.metastableBand > 0.0 &&
        std::fabs(dv) < params_.metastableBand) {
        return rng_.bernoulli(0.5);
    }
    const double noise =
        params_.noiseSigma > 0.0 ? rng_.gaussian(0.0, params_.noiseSigma)
                                 : 0.0;
    return dv + noise > 0.0;
}

unsigned
Comparator::strobeBatch(double v_sig, const double *v_ref, std::size_t n,
                        const StrobeKernels &kernels)
{
    if (params_.metastableBand > 0.0) {
        // Metastable strobes consume a different draw (a coin flip),
        // so the block-drawn fast path would desynchronize the
        // stream; evaluate strobe-by-strobe instead.
        unsigned hits = 0;
        for (std::size_t i = 0; i < n; ++i)
            hits += strobe(v_sig, v_ref[i]) ? 1u : 0u;
        return hits;
    }
    const double base = v_sig + params_.inputOffset;
    unsigned hits = 0;
    if (params_.noiseSigma == 0.0) {
        for (std::size_t i = 0; i < n; ++i)
            hits += (base - v_ref[i] > 0.0) ? 1u : 0u;
        return hits;
    }
    std::size_t i = 0;
    if (n > 0 && rng_.hasCachedNormal())
        hits += strobe(v_sig, v_ref[i++]) ? 1u : 0u;
    const std::size_t pairs = (n - i) / 2;
    noiseScratch_.resize(2 * pairs);
    rng_.polarPairs(noiseScratch_.data(), pairs);
    hits += kernels.polarStrobeHits(noiseScratch_.data(), v_ref + i,
                                    2 * pairs, base, params_.noiseSigma);
    i += 2 * pairs;
    if (i < n)  // draws a pair and caches its second normal
        hits += strobe(v_sig, v_ref[i]) ? 1u : 0u;
    return hits;
}

unsigned
Comparator::strobeAnalytic(double v_sig, const double *ref_levels,
                           std::size_t levels,
                           unsigned per_level_trials)
{
    const double base = v_sig + params_.inputOffset;
    const double sigma = params_.noiseSigma;
    const double inv_sigma = sigma > 0.0 ? 1.0 / sigma : 0.0;
    unsigned hits = 0;
    for (std::size_t j = 0; j < levels; ++j) {
        const double dv = base - ref_levels[j];
        double p;
        if (params_.metastableBand > 0.0 &&
            std::fabs(dv) < params_.metastableBand) {
            p = 0.5;
        } else if (sigma == 0.0) {
            p = dv > 0.0 ? 1.0 : 0.0;
        } else {
            // Saturate past +-8 sigma: the tail mass (< 1e-15) is
            // unobservable at any realistic trial count and skipping
            // the CDF keeps flat trace regions nearly free.
            p = normalCdfSaturated(dv * inv_sigma);
        }
        hits += static_cast<unsigned>(
            rng_.binomial(per_level_trials, p));
    }
    return hits;
}

void
Comparator::strobeAnalyticSoA(const StrobeKernels &kernels,
                              const double *ref_levels,
                              std::size_t bins, std::size_t levels,
                              unsigned per_level_trials, StrobeSoA &soa)
{
    if (params_.metastableBand > 0.0)
        divot_fatal("strobeAnalyticSoA requires a zero metastable band "
                    "(got %g); use per-bin strobeAnalytic",
                    params_.metastableBand);
    const double sigma = params_.noiseSigma;
    const double inv_sigma = sigma > 0.0 ? 1.0 / sigma : 0.0;
    soa.resize(bins, levels);
    kernels.apcProbabilityGrid(soa.vSig.data(), params_.inputOffset,
                               inv_sigma, ref_levels, soa.prob.data(),
                               bins, levels);
    kernels.binomialLane(rng_, soa.prob.data(), per_level_trials,
                         soa.laneHits.data(), bins * levels);
    const unsigned *lane = soa.laneHits.data();
    for (std::size_t i = 0; i < bins; ++i) {
        unsigned sum = 0;
        for (std::size_t j = 0; j < levels; ++j)
            sum += lane[j];
        soa.hits[i] = sum;
        lane += levels;
    }
}

double
Comparator::probabilityHigh(double v_sig, double v_ref) const
{
    const double dv = v_sig + params_.inputOffset - v_ref;
    if (params_.noiseSigma == 0.0)
        return dv > 0.0 ? 1.0 : 0.0;
    return normalCdf(dv / params_.noiseSigma);
}

} // namespace divot
