/**
 * @file
 * AVX2 strobe kernels (4-wide doubles).
 *
 * Phi evaluation uses Abramowitz & Stegun 7.1.26 (|abs error| <=
 * 1.5e-7 on erf) over a division-free vector exp (Cody-Waite range
 * reduction + degree-8 Horner, relative error ~2e-9), so interior
 * probabilities differ from the scalar kernel's libm erfc only below
 * ~3e-7 — far inside the APC's counting noise, pinned statistically
 * by the EER-delta gate. Saturation past +-8 sigma is exact 0.0/1.0,
 * exactly like scalar, so a saturated lane never consumes a draw and
 * the draw schedule is target-invariant.
 *
 * The binomial kernel replays Rng::binomialInvert's IEEE operations
 * lane-wise: uniforms are drawn sequentially in lane order for
 * exactly the non-degenerate lanes, and the masked CDF-inversion
 * walk advances all active lanes in lockstep (an active lane at
 * iteration i has walked exactly i steps, so the recurrence factor
 * (n-i)/(i+1) is uniform across the vector). With non-FMA intrinsics
 * (this file is compiled -mavx2 without -mfma, plus
 * -ffp-contract=off) the result is bit-identical to the scalar
 * kernel for identical probability inputs.
 *
 * The polar strobe count settles most Sampled strobes from signs and
 * bounds and evaluates the scalar expression in the rest, so it
 * returns the scalar kernel's count (see avx2PolarStrobeHits).
 *
 * This whole file compiles to a stub returning nullptr off x86 or
 * when the compiler cannot target AVX2; runtime CPU support is the
 * dispatcher's job (kernels here are only reached after
 * __builtin_cpu_supports("avx2") says yes).
 */

#include "itdr/kernels/kernels.hh"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <algorithm>
#include <immintrin.h>

#include "util/math.hh"

namespace divot {

namespace {

/** exp(v) for v in [-40, 0]: range-reduce to r in [-ln2/2, ln2/2],
 *  degree-8 Horner, scale by 2^n through the exponent bits. */
inline __m256d
expUnit4(__m256d v)
{
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d log2e = _mm256_set1_pd(1.4426950408889634);
    const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);
    const __m256d n = _mm256_round_pd(
        _mm256_mul_pd(v, log2e),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256d r = _mm256_sub_pd(v, _mm256_mul_pd(n, ln2_hi));
    r = _mm256_sub_pd(r, _mm256_mul_pd(n, ln2_lo));
    __m256d q = _mm256_set1_pd(1.0 / 40320.0);
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 5040.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 720.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 120.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 24.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 6.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(0.5));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), one);
    q = _mm256_add_pd(_mm256_mul_pd(q, r), one);
    // 2^n via (n + 1023) << 52; n in [-58, 0] here so no clamping.
    const __m128i n32 = _mm256_cvtpd_epi32(n);
    const __m256i n64 = _mm256_cvtepi32_epi64(n32);
    const __m256i bits = _mm256_slli_epi64(
        _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
    return _mm256_mul_pd(q, _mm256_castsi256_pd(bits));
}

/** Phi(z) with exact +-8 sigma saturation (A&S 7.1.26 interior). */
inline __m256d
phi4(__m256d z)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d eight = _mm256_set1_pd(8.0);
    const __m256d sign_mask = _mm256_set1_pd(-0.0);

    const __m256d az = _mm256_andnot_pd(sign_mask, z);
    const __m256d x =
        _mm256_mul_pd(az, _mm256_set1_pd(0.7071067811865476));
    const __m256d t = _mm256_div_pd(
        one,
        _mm256_add_pd(one,
                      _mm256_mul_pd(_mm256_set1_pd(0.3275911), x)));
    __m256d poly = _mm256_set1_pd(1.061405429);
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t),
                         _mm256_set1_pd(-1.453152027));
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t),
                         _mm256_set1_pd(1.421413741));
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t),
                         _mm256_set1_pd(-0.284496736));
    poly = _mm256_add_pd(_mm256_mul_pd(poly, t),
                         _mm256_set1_pd(0.254829592));
    poly = _mm256_mul_pd(poly, t);
    const __m256d ex =
        expUnit4(_mm256_sub_pd(zero, _mm256_mul_pd(x, x)));
    const __m256d erf = _mm256_sub_pd(one, _mm256_mul_pd(poly, ex));

    const __m256d hi = _mm256_mul_pd(half, _mm256_add_pd(one, erf));
    const __m256d lo = _mm256_mul_pd(half, _mm256_sub_pd(one, erf));
    __m256d phi = _mm256_blendv_pd(
        lo, hi, _mm256_cmp_pd(z, zero, _CMP_GE_OQ));
    phi = _mm256_blendv_pd(phi, one,
                           _mm256_cmp_pd(z, eight, _CMP_GE_OQ));
    phi = _mm256_blendv_pd(
        phi, zero,
        _mm256_cmp_pd(z, _mm256_sub_pd(zero, eight), _CMP_LE_OQ));
    return phi;
}

void
avx2ApcProbabilityGrid(const double *v_sig, double offset,
                       double inv_sigma, const double *ref, double *p,
                       std::size_t bins, std::size_t levels)
{
    if (inv_sigma <= 0.0) {
        // Noiseless comparator: the hard step has nothing to gain
        // from the erf pipeline.
        scalarStrobeKernels()->apcProbabilityGrid(
            v_sig, offset, inv_sigma, ref, p, bins, levels);
        return;
    }
    const __m256d vinv = _mm256_set1_pd(inv_sigma);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d eight = _mm256_set1_pd(8.0);
    const __m256d neg_eight = _mm256_set1_pd(-8.0);
    for (std::size_t i = 0; i < bins; ++i) {
        const double base = v_sig[i] + offset;
        const __m256d vbase = _mm256_set1_pd(base);
        const double *r = ref + i * levels;
        double *row = p + i * levels;
        std::size_t j = 0;
        for (; j + 4 <= levels; j += 4) {
            const __m256d dv =
                _mm256_sub_pd(vbase, _mm256_loadu_pd(r + j));
            const __m256d z = _mm256_mul_pd(dv, vinv);
            // Flat trace regions saturate whole vectors: resolve them
            // with two compares instead of the erf pipeline, exactly
            // like the scalar kernel's +-8 sigma short-circuit.
            const __m256d hi = _mm256_cmp_pd(z, eight, _CMP_GE_OQ);
            const __m256d lo = _mm256_cmp_pd(z, neg_eight, _CMP_LE_OQ);
            if (_mm256_movemask_pd(_mm256_or_pd(hi, lo)) == 0xf) {
                _mm256_storeu_pd(row + j,
                                 _mm256_blendv_pd(zero, one, hi));
                continue;
            }
            _mm256_storeu_pd(row + j, phi4(z));
        }
        for (; j < levels; ++j)
            row[j] = normalCdfSaturated((base - r[j]) * inv_sigma);
    }
}

/** G interleaved 4-lane lockstep CDF-inversion walks (see file
 *  comment). Every group executes exactly the same IEEE operation
 *  sequence on its own registers — the i-th iteration's recurrence
 *  factor (n-i)/(i+1) is lane- and group-invariant, and a finished
 *  group's blends are no-ops — so results are bit-identical to G
 *  independent single-group walks. Interleaving exists purely for
 *  instruction-level parallelism: the walk's ~20-cycle
 *  mul/div/mul/add chain is serial within a group, so G independent
 *  chains fill each other's latency instead of stalling the core. */
template <int G>
inline void
binomialWalkN(const double *u, const double *pe, uint64_t n,
              long long *out)
{
    const __m256d one = _mm256_set1_pd(1.0);
    __m256d vodds[G], vpmf[G], vq[G], vcum[G], vu[G];
    __m256i vk[G];
    for (int g = 0; g < G; ++g) {
        const __m256d vpe = _mm256_loadu_pd(pe + 4 * g);
        const __m256d vqe = _mm256_sub_pd(one, vpe);
        vodds[g] = _mm256_div_pd(vpe, vqe);
        vpmf[g] = one;
        vq[g] = vqe;
        vu[g] = _mm256_loadu_pd(u + 4 * g);
        vk[g] = _mm256_setzero_si256();
    }
    // pmf(0) = qe^n, shared exponent: the same square-and-multiply
    // schedule as Rng::binomialInvert, vectorized.
    for (uint64_t e = n; e != 0; e >>= 1) {
        if (e & 1) {
            for (int g = 0; g < G; ++g)
                vpmf[g] = _mm256_mul_pd(vpmf[g], vq[g]);
        }
        for (int g = 0; g < G; ++g)
            vq[g] = _mm256_mul_pd(vq[g], vq[g]);
    }
    for (int g = 0; g < G; ++g)
        vcum[g] = vpmf[g];
    for (uint64_t i = 0; i < n; ++i) {
        __m256d act[G];
        int any = 0;
        for (int g = 0; g < G; ++g) {
            act[g] = _mm256_cmp_pd(vcum[g], vu[g], _CMP_LE_OQ);
            any |= _mm256_movemask_pd(act[g]);
        }
        if (any == 0)
            break;
        // Every active lane has walked exactly i steps, so the
        // scalar recurrence factor (n-k)/(k+1) is lane-invariant.
        const __m256d num =
            _mm256_set1_pd(static_cast<double>(n - i));
        const __m256d den =
            _mm256_set1_pd(static_cast<double>(i + 1));
        for (int g = 0; g < G; ++g) {
            __m256d t = _mm256_mul_pd(vodds[g], num);
            t = _mm256_div_pd(t, den);
            const __m256d pmf_next = _mm256_mul_pd(vpmf[g], t);
            const __m256d cum_next = _mm256_add_pd(vcum[g], pmf_next);
            vpmf[g] = _mm256_blendv_pd(vpmf[g], pmf_next, act[g]);
            vcum[g] = _mm256_blendv_pd(vcum[g], cum_next, act[g]);
            // active lanes are all-ones (-1): subtracting increments.
            vk[g] = _mm256_sub_epi64(vk[g], _mm256_castpd_si256(act[g]));
        }
    }
    for (int g = 0; g < G; ++g) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 4 * g),
                            vk[g]);
    }
}

void
avx2BinomialLane(Rng &rng, const double *p, uint64_t trials,
                 unsigned *k, std::size_t lanes)
{
    if (trials == 0 || trials > Rng::binomialInversionCutoff) {
        // Above the inversion cutoff the scalar engine's normal
        // cutoff consumes a variable number of draws (polar
        // rejection): not vectorizable without changing the stream.
        scalarStrobeKernels()->binomialLane(rng, p, trials, k, lanes);
        return;
    }
    // Tile so the gather scratch stays cache- and stack-friendly at
    // fleet-scale lane counts (bins x levels can reach ~10^4).
    constexpr std::size_t kTile = 256;
    double u[kTile], pe[kTile];
    std::size_t idx[kTile];
    unsigned char flip[kTile];
    std::size_t l = 0;
    while (l < lanes) {
        const std::size_t end = std::min(l + kTile, lanes);
        // Gather pass: resolve degenerate lanes (no draw — same
        // contract as Rng::binomial), fold the p > 1/2 symmetry, and
        // draw one uniform per surviving lane in lane order. Runs of
        // saturated lanes (flat trace regions produce long stretches
        // of p == 0 / p == 1) resolve four at a time: two compares,
        // a movemask, and a masked int store.
        const __m256d vzero = _mm256_setzero_pd();
        const __m256d vone_ = _mm256_set1_pd(1.0);
        const __m256d vtrials =
            _mm256_set1_pd(static_cast<double>(trials));
        std::size_t m = 0;
        while (l < end) {
            if (l + 4 <= end) {
                const __m256d pl4 = _mm256_loadu_pd(p + l);
                const __m256d lo =
                    _mm256_cmp_pd(pl4, vzero, _CMP_LE_OQ);
                const __m256d hi =
                    _mm256_cmp_pd(pl4, vone_, _CMP_GE_OQ);
                if (_mm256_movemask_pd(_mm256_or_pd(lo, hi)) == 0xf) {
                    // (hi ? trials : 0) as doubles, narrowed to the
                    // 32-bit counters.
                    const __m128i k4 = _mm256_cvtpd_epi32(
                        _mm256_and_pd(hi, vtrials));
                    _mm_storeu_si128(
                        reinterpret_cast<__m128i *>(k + l), k4);
                    l += 4;
                    continue;
                }
            }
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
            ++l;
        }
        std::size_t j = 0;
        // Two groups keep every walk register resident (four would
        // spill: ~5 ymm of live state per group against 16 regs).
        for (; j + 8 <= m; j += 8) {
            long long out[8];
            binomialWalkN<2>(u + j, pe + j, trials, out);
            for (std::size_t c = 0; c < 8; ++c) {
                const auto kk = static_cast<uint64_t>(out[c]);
                k[idx[j + c]] = static_cast<unsigned>(
                    flip[j + c] != 0 ? trials - kk : kk);
            }
        }
        for (; j + 4 <= m; j += 4) {
            long long out[4];
            binomialWalkN<1>(u + j, pe + j, trials, out);
            for (std::size_t c = 0; c < 4; ++c) {
                const auto kk = static_cast<uint64_t>(out[c]);
                k[idx[j + c]] = static_cast<unsigned>(
                    flip[j + c] != 0 ? trials - kk : kk);
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
avx2TilePeriodic(const double *period, std::size_t levels, double *out,
                 std::size_t n)
{
    // Bit-exact copies: vectorizing changes nothing but speed. Tile
    // whole periods while a full period fits, then wrap scalar.
    std::size_t i = 0;
    while (i + levels <= n) {
        std::size_t j = 0;
        for (; j + 4 <= levels; j += 4)
            _mm256_storeu_pd(out + i + j, _mm256_loadu_pd(period + j));
        for (; j < levels; ++j)
            out[i + j] = period[j];
        i += levels;
    }
    for (; i < n; ++i)
        out[i] = period[i % levels];
}

/**
 * The polar strobe count without the Gaussian transform. Strobe j hits
 * when d + sigma * (x * m) > 0, with d = base - ref[j], x = uv[j] and
 * m = sqrt(-2 ln s / s) > 0 over its pair, so the noise has the sign
 * of x, and rounding keeps every sign. Each lane settles by one of
 * three rules:
 *
 *  - sign: unless d and x are nonzero with opposite signs, d's sign is
 *    the answer (d = +-0: x's; NaN d: a miss);
 *  - bound: otherwise the noise outweighs d exactly when
 *    d^2 s < 2 sigma^2 x^2 (-ln s), and 1 - s <= -ln s <= (1 - s)/s
 *    bracket the logarithm. With a = d^2 s and t = 2 sigma^2 x^2
 *    (1 - s), a < t (1 - delta) means the noise wins (the sign of x
 *    decides) and a s > t (1 + delta) means d wins. delta = 1e-9 far
 *    exceeds the ~10 roundings on either side and libm log's 1-ulp
 *    error, so a bound never disagrees with the scalar expression;
 *  - exact: the scalar expression, in the few lanes the bounds leave
 *    open. They are collected per chunk and evaluated after its vector
 *    pass, so the pass makes no call.
 *
 * A length of 2 mod 4 leaves one pair after the last whole vector; it
 * settles by the same rules in a masked vector, so it reaches the
 * exact expression only where a bound leaves it open.
 *
 * The error argument needs every product normal: with uv from
 * Rng::polarPairs (|x| = 0 or >= 2^-52, s in [2^-104, 1)), t lies in
 * [1e-247, 2e200] for sigma in [1e-100, 1e100]; any other sigma takes
 * the scalar kernel.
 */
unsigned
avx2PolarStrobeHits(const double *uv, const double *ref, std::size_t n,
                    double base, double sigma)
{
    if (!(sigma >= 1e-100 && sigma <= 1e100))
        return scalarStrobeKernels()->polarStrobeHits(uv, ref, n, base,
                                                      sigma);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d vbase = _mm256_set1_pd(base);
    const __m256d two_var = _mm256_set1_pd(2.0 * sigma * sigma);
    const __m256d below = _mm256_set1_pd(1.0 - 1e-9);
    const __m256d above = _mm256_set1_pd(1.0 + 1e-9);
    // Lanes u0 v0 u1 v1: two pairs, each lane's s from its pair. Sets
    // the movemask bits of the lanes that hit and of those left open.
    auto settle = [&](__m256d x, __m256d r, int &hit, int &open) {
        const __m256d d = _mm256_sub_pd(vbase, r);
        const __m256d sq = _mm256_mul_pd(x, x);
        const __m256d s = _mm256_add_pd(sq, _mm256_permute_pd(sq, 0x5));
        // Sign bit set where d and x are nonzero with opposite signs
        // (a NaN d fails the d != 0 test).
        const __m256d opposite = _mm256_and_pd(
            _mm256_xor_pd(d, x),
            _mm256_and_pd(_mm256_cmp_pd(d, zero, _CMP_NEQ_OQ),
                          _mm256_cmp_pd(x, zero, _CMP_NEQ_OQ)));
        const __m256d a = _mm256_mul_pd(_mm256_mul_pd(d, d), s);
        const __m256d t = _mm256_mul_pd(_mm256_mul_pd(two_var, sq),
                                        _mm256_sub_pd(one, s));
        const __m256d noise_wins =
            _mm256_cmp_pd(a, _mm256_mul_pd(t, below), _CMP_LT_OQ);
        const __m256d d_wins = _mm256_cmp_pd(
            _mm256_mul_pd(a, s), _mm256_mul_pd(t, above), _CMP_GT_OQ);
        // The deciding sign: x's where d = +-0 or the noise wins, else
        // d's.
        const __m256d decider = _mm256_blendv_pd(
            d, x,
            _mm256_or_pd(_mm256_cmp_pd(d, zero, _CMP_EQ_OQ),
                         _mm256_and_pd(opposite, noise_wins)));
        hit = _mm256_movemask_pd(_mm256_cmp_pd(decider, zero, _CMP_GT_OQ));
        open = _mm256_movemask_pd(
            _mm256_andnot_pd(_mm256_or_pd(noise_wins, d_wins), opposite));
    };
    auto exact = [&](std::size_t l) {
        const double m = polarScale(uv[l & ~std::size_t{1}], uv[l | 1]);
        return base - ref[l] + sigma * (uv[l] * m) > 0.0 ? 1u : 0u;
    };
    constexpr std::size_t kChunk = 256;
    std::size_t open_lanes[kChunk];
    const std::size_t vector_end = n & ~std::size_t{3};
    unsigned hits = 0;
    std::size_t j = 0;
    while (j < vector_end) {
        const std::size_t chunk_end = std::min(vector_end, j + kChunk);
        std::size_t opens = 0;
        for (; j < chunk_end; j += 4) {
            int hit = 0;
            int open = 0;
            settle(_mm256_loadu_pd(uv + j), _mm256_loadu_pd(ref + j), hit,
                   open);
            hits += static_cast<unsigned>(__builtin_popcount(hit & ~open));
            for (int lanes = open; lanes != 0; lanes &= lanes - 1) {
                open_lanes[opens++] = j + static_cast<std::size_t>(
                    __builtin_ctz(static_cast<unsigned>(lanes)));
            }
        }
        for (std::size_t o = 0; o < opens; ++o)
            hits += exact(open_lanes[o]);
    }
    if (j < n) {
        // n is even, so one pair is left. Settle it in lanes 0 and 1 of
        // a masked vector: lanes 2 and 3 load zeros (their memory is not
        // touched) and leave both masks.
        const __m256i pair = _mm256_setr_epi64x(-1, -1, 0, 0);
        int hit = 0;
        int open = 0;
        settle(_mm256_maskload_pd(uv + j, pair),
               _mm256_maskload_pd(ref + j, pair), hit, open);
        hit &= 0x3;
        open &= 0x3;
        hits += static_cast<unsigned>(__builtin_popcount(hit & ~open));
        for (int lanes = open; lanes != 0; lanes &= lanes - 1)
            hits += exact(j + static_cast<std::size_t>(__builtin_ctz(
                                  static_cast<unsigned>(lanes))));
    }
    return hits;
}

const StrobeKernels kAvx2Kernels = {
    SimdTarget::Avx2,
    "avx2",
    &avx2ApcProbabilityGrid,
    &avx2BinomialLane,
    &avx2TilePeriodic,
    &avx2PolarStrobeHits,
};

} // namespace

const StrobeKernels *
avx2StrobeKernels()
{
    return &kAvx2Kernels;
}

} // namespace divot

#else // !(__AVX2__ && x86)

namespace divot {

const StrobeKernels *
avx2StrobeKernels()
{
    return nullptr;
}

} // namespace divot

#endif
