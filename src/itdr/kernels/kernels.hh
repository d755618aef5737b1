/**
 * @file
 * Runtime-dispatched SIMD strobe kernels (DESIGN.md §13).
 *
 * The analytic (Binomial) strobe engine spends its time in three
 * regular, per-bin-independent loops: the APC output-1 probability
 * Phi((V_sig + offset - ref)/sigma) over every (bin, Vernier level)
 * pair, the exact-binomial CDF-inversion draw per pair, and the
 * tiling of the periodic Vernier schedule. The Sampled engine adds a
 * fourth: counting one bin's strobe hits from its polar noise pairs.
 * This layer packages those loops as structure-of-arrays kernels with
 * scalar / AVX2 / NEON implementations selected at runtime — per
 * instrument via ItdrConfig::simd, or globally via the DIVOT_SIMD
 * environment variable ({auto, scalar, avx2, neon}; the environment
 * wins).
 *
 * Determinism contract, per kernel (DESIGN.md §13):
 *  - scalar is bit-identical to the pre-kernel Binomial engine (it
 *    performs the very same libm calls and Rng draws in the same
 *    order);
 *  - the binomial kernel is bit-identical across *all* targets for
 *    identical probability inputs — the vector walk replays
 *    Rng::binomialInvert's IEEE operations lane-wise with non-FMA
 *    intrinsics and consumes uniforms in lane order;
 *  - the polar strobe count is bit-identical across all targets:
 *    vector lanes settle a strobe only where its sign or a bound
 *    proves the scalar answer, and evaluate the scalar expression
 *    otherwise;
 *  - the AVX2 Phi kernel is a polynomial approximation (|error| <
 *    ~3e-7) and may therefore differ from scalar in the last bits of
 *    interior probabilities — statistically invisible (pinned by the
 *    EER-delta gate) but not bit-compatible, which is why results
 *    are pinned per (seed, config, dispatch target), not across
 *    targets. Saturation past +-8 sigma is exact 0.0/1.0 on every
 *    target so a saturated lane never consumes a draw.
 */

#ifndef DIVOT_ITDR_KERNELS_KERNELS_HH
#define DIVOT_ITDR_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "util/rng.hh"

namespace divot {

/** Which strobe-kernel implementation to run. */
enum class SimdTarget
{
    Auto,   //!< best supported target (env DIVOT_SIMD still wins)
    Scalar, //!< portable reference, bit-identical to the pre-kernel
            //!< Binomial engine
    Avx2,   //!< x86-64 AVX2 (4-wide doubles)
    Neon    //!< aarch64 NEON (2-wide doubles)
};

/** @return lower-case target name ("auto", "scalar", "avx2", "neon"). */
const char *simdTargetName(SimdTarget target);

/**
 * The vectorizable pieces of the analytic strobe engine, as function
 * pointers so one ITdr carries exactly one resolved implementation.
 */
struct StrobeKernels
{
    SimdTarget target = SimdTarget::Scalar;
    const char *name = "scalar";

    /**
     * Batched APC output-1 probabilities over a bins x levels grid:
     * p[i*levels + j] for dv = (v_sig[i] + offset) - ref[i*levels+j].
     * inv_sigma <= 0 means a noiseless comparator (p = step(dv));
     * otherwise z = dv * inv_sigma, saturated to an exact 0.0 / 1.0
     * past +-8 sigma (exactness is load-bearing: a saturated
     * probability must consume no draw downstream).
     */
    void (*apcProbabilityGrid)(const double *v_sig, double offset,
                               double inv_sigma, const double *ref,
                               double *p, std::size_t bins,
                               std::size_t levels);

    /**
     * One Binomial(trials, p[l]) draw per lane into k[l], consuming
     * `rng` exactly like `lanes` sequential Rng::binomial(trials,
     * p[l]) calls: degenerate lanes (p <= 0, p >= 1) draw nothing,
     * every other lane draws one uniform in lane order (trials <=
     * Rng::binomialInversionCutoff; larger trial counts fall back to
     * per-lane Rng::binomial on every target).
     */
    void (*binomialLane)(Rng &rng, const double *p, uint64_t trials,
                         unsigned *k, std::size_t lanes);

    /** Tile one Vernier period: out[i] = period[i % levels]. */
    void (*tilePeriodic)(const double *period, std::size_t levels,
                         double *out, std::size_t n);

    /**
     * Hits of n Sampled strobes of one signal: strobe j hits when
     * base - ref[j] + sigma * (uv[j] * m) > 0, where m is polarScale
     * over strobe j's pair (uv[j & ~1], uv[j | 1]) and sigma > 0. n is
     * even and uv holds n/2 pairs that Rng::polarPairs accepted. Every
     * target returns the count of that expression (DESIGN.md §13.4):
     * vector targets settle most strobes from signs and bounds without
     * evaluating it.
     */
    unsigned (*polarStrobeHits)(const double *uv, const double *ref,
                                std::size_t n, double base,
                                double sigma);
};

/**
 * @return whether `target` can run on this build + machine (compiled
 * in and supported by the CPU). Scalar and Auto are always true.
 */
bool simdTargetSupported(SimdTarget target);

/**
 * Resolve a configured target to a runnable one: the DIVOT_SIMD
 * environment variable (read on every call, so tests can force a
 * target per instrument construction) overrides `requested`; Auto
 * picks the best supported target; a forced-but-unsupported target
 * falls back to scalar with a one-time warning.
 */
SimdTarget resolveSimdTarget(SimdTarget requested);

/** @return the kernel table for resolveSimdTarget(requested). */
const StrobeKernels &strobeKernels(SimdTarget requested);

/** @name Per-ISA tables (nullptr when not compiled in / unrunnable).
 *  Exposed for the dispatch layer and the lane-equality tests. */
///@{
const StrobeKernels *scalarStrobeKernels();
const StrobeKernels *avx2StrobeKernels();
const StrobeKernels *neonStrobeKernels();
///@}

} // namespace divot

#endif // DIVOT_ITDR_KERNELS_KERNELS_HH
