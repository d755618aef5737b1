/**
 * @file
 * NEON strobe kernels (aarch64, 2-wide doubles).
 *
 * The binomial kernel vectorizes the CDF-inversion walk exactly like
 * the AVX2 kernel (lockstep masked recurrence, uniforms drawn in lane
 * order, non-FMA arithmetic — this file compiles with
 * -ffp-contract=off so vmulq/vaddq never fuse), which makes it
 * bit-identical to the scalar kernel for identical inputs. Phi stays
 * on scalar libm per lane: the grid kernel's win on this target is
 * the SoA restructuring plus the vector walk, and keeping libm means
 * the whole NEON kernel set is bit-identical to scalar — there is no
 * approximation seam to re-validate on hardware this repo's CI
 * cannot exercise. The polar strobe count is the scalar kernel's.
 */

#include "itdr/kernels/kernels.hh"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "util/math.hh"

namespace divot {

namespace {

void
neonApcProbabilityGrid(const double *v_sig, double offset,
                       double inv_sigma, const double *ref, double *p,
                       std::size_t bins, std::size_t levels)
{
    // Scalar libm per lane, SoA iteration order (see file comment).
    scalarStrobeKernels()->apcProbabilityGrid(v_sig, offset, inv_sigma,
                                              ref, p, bins, levels);
}

/** Two lockstep CDF-inversion walks, mirroring Rng::binomialInvert. */
inline void
binomialWalk2(const double *u, const double *pe, uint64_t n,
              uint64_t *out)
{
    const float64x2_t one = vdupq_n_f64(1.0);
    const float64x2_t vpe = vld1q_f64(pe);
    const float64x2_t vqe = vsubq_f64(one, vpe);
    const float64x2_t vodds = vdivq_f64(vpe, vqe);
    float64x2_t vpmf = one;
    float64x2_t vq = vqe;
    for (uint64_t e = n; e != 0; e >>= 1) {
        if (e & 1)
            vpmf = vmulq_f64(vpmf, vq);
        vq = vmulq_f64(vq, vq);
    }
    float64x2_t vcum = vpmf;
    const float64x2_t vu = vld1q_f64(u);
    uint64x2_t vk = vdupq_n_u64(0);
    for (uint64_t i = 0; i < n; ++i) {
        // active lane <=> cum <= u, i.e. !(cum > u)
        const uint64x2_t active = vcleq_f64(vcum, vu);
        if (vgetq_lane_u64(active, 0) == 0
            && vgetq_lane_u64(active, 1) == 0)
            break;
        float64x2_t t =
            vmulq_f64(vodds, vdupq_n_f64(static_cast<double>(n - i)));
        t = vdivq_f64(t, vdupq_n_f64(static_cast<double>(i + 1)));
        const float64x2_t pmf_next = vmulq_f64(vpmf, t);
        const float64x2_t cum_next = vaddq_f64(vcum, pmf_next);
        vpmf = vbslq_f64(active, pmf_next, vpmf);
        vcum = vbslq_f64(active, cum_next, vcum);
        // active lanes are all-ones (~0): subtracting increments k.
        vk = vsubq_u64(vk, active);
    }
    vst1q_u64(out, vk);
}

void
neonBinomialLane(Rng &rng, const double *p, uint64_t trials,
                 unsigned *k, std::size_t lanes)
{
    if (trials == 0 || trials > Rng::binomialInversionCutoff) {
        scalarStrobeKernels()->binomialLane(rng, p, trials, k, lanes);
        return;
    }
    constexpr std::size_t kTile = 256;
    double u[kTile], pe[kTile];
    std::size_t idx[kTile];
    unsigned char flip[kTile];
    std::size_t l = 0;
    while (l < lanes) {
        const std::size_t end = std::min(l + kTile, lanes);
        std::size_t m = 0;
        for (; l < end; ++l) {
            const double pl = p[l];
            if (pl <= 0.0) {
                k[l] = 0;
            } else if (pl >= 1.0) {
                k[l] = static_cast<unsigned>(trials);
            } else {
                const bool fl = pl > 0.5;
                pe[m] = fl ? 1.0 - pl : pl;
                flip[m] = fl ? 1 : 0;
                idx[m] = l;
                u[m] = rng.uniform();
                ++m;
            }
        }
        std::size_t j = 0;
        for (; j + 2 <= m; j += 2) {
            uint64_t out[2];
            binomialWalk2(u + j, pe + j, trials, out);
            for (std::size_t c = 0; c < 2; ++c) {
                k[idx[j + c]] = static_cast<unsigned>(
                    flip[j + c] != 0 ? trials - out[c] : out[c]);
            }
        }
        for (; j < m; ++j) {
            const uint64_t kk =
                Rng::binomialInvert(u[j], trials, pe[j]);
            k[idx[j]] = static_cast<unsigned>(
                flip[j] != 0 ? trials - kk : kk);
        }
    }
}

void
neonTilePeriodic(const double *period, std::size_t levels, double *out,
                 std::size_t n)
{
    std::size_t i = 0;
    while (i + levels <= n) {
        std::size_t j = 0;
        for (; j + 2 <= levels; j += 2)
            vst1q_f64(out + i + j, vld1q_f64(period + j));
        for (; j < levels; ++j)
            out[i + j] = period[j];
        i += levels;
    }
    for (; i < n; ++i)
        out[i] = period[i % levels];
}

unsigned
neonPolarStrobeHits(const double *uv, const double *ref, std::size_t n,
                    double base, double sigma)
{
    return scalarStrobeKernels()->polarStrobeHits(uv, ref, n, base,
                                                  sigma);
}

const StrobeKernels kNeonKernels = {
    SimdTarget::Neon,
    "neon",
    &neonApcProbabilityGrid,
    &neonBinomialLane,
    &neonTilePeriodic,
    &neonPolarStrobeHits,
};

} // namespace

const StrobeKernels *
neonStrobeKernels()
{
    return &kNeonKernels;
}

} // namespace divot

#else // !__aarch64__

namespace divot {

const StrobeKernels *
neonStrobeKernels()
{
    return nullptr;
}

} // namespace divot

#endif
