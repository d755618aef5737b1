#include "analog/triangle.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace divot {

TriangleWave::TriangleWave(double amplitude, double frequency,
                           double center, double rc_shaping)
    : amplitude_(amplitude), frequency_(frequency), center_(center),
      rcShaping_(rc_shaping)
{
    // NaN fails every comparison, so a bare range check lets it
    // through: each field is checked for finiteness, or (rc_shaping)
    // written as the negation of its valid range.
    if (!std::isfinite(amplitude) || amplitude < 0.0)
        divot_fatal("triangle amplitude must be finite and >= 0 (got %g)",
                    amplitude);
    if (!std::isfinite(frequency) || frequency <= 0.0)
        divot_fatal("triangle frequency must be finite and positive "
                    "(got %g)", frequency);
    if (!std::isfinite(center))
        divot_fatal("triangle center must be finite (got %g)", center);
    if (!(rc_shaping >= 0.0 && rc_shaping <= 2.0))
        divot_fatal("rc_shaping %g outside [0,2]", rc_shaping);
    if (rc_shaping != 0.0) {
        // Steady-state bounds v_lo, v_hi satisfy symmetry around 0.
        rcK_ = 1.0 / rc_shaping;
        const double decay = std::exp(-rcK_);
        rcCrest_ = (1.0 - decay) / (1.0 + decay);
    }
}

double
TriangleWave::idealShape(double u) const
{
    // u in [0,1): rise over the first half, fall over the second.
    if (u < 0.5)
        return 4.0 * u - 1.0;
    return 3.0 - 4.0 * u;
}

double
TriangleWave::valueAt(double t) const
{
    // Phase in [0, 1). x - trunc(x) is exact for every finite x (a
    // double's fractional part is itself a double), so it equals
    // fmod(x, 1.0) at a fraction of glibc fmod's cost, except at
    // negative integers, where it gives +0 and fmod -0: both zeros
    // map to the trough below.
    const double phase = t * frequency_;
    double u = phase - std::trunc(phase);
    if (u < 0.0)
        u += 1.0;
    double shape;
    if (rcShaping_ == 0.0) {
        shape = idealShape(u);
    } else {
        // RC charge/discharge toward the rails, normalized so the
        // quasi-triangle still spans [-1, 1] in steady state.
        const double v_hi = rcCrest_;
        const double v_lo = -v_hi;
        double v;
        if (u < 0.5) {
            const double x = u / 0.5;  // 0..1 over charge phase
            v = 1.0 + (v_lo - 1.0) * std::exp(-rcK_ * x);
        } else {
            const double x = (u - 0.5) / 0.5;
            v = -1.0 + (v_hi + 1.0) * std::exp(-rcK_ * x);
        }
        // Renormalize to span [-1, 1].
        shape = v / v_hi;
    }
    return center_ + amplitude_ * shape;
}

Waveform
TriangleWave::sampledPeriod(double dt) const
{
    const double period = 1.0 / frequency_;
    const std::size_t n =
        static_cast<std::size_t>(std::ceil(period / dt));
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i)
        s[i] = valueAt(static_cast<double>(i) * dt);
    return Waveform(dt, std::move(s), 0.0);
}

std::vector<double>
vernierReferenceLevels(const TriangleWave &wave, unsigned p, unsigned q,
                       double t0)
{
    if (p == 0 || q == 0)
        divot_fatal("Vernier ratio must be positive (p=%u q=%u)", p, q);
    if (!coprime(p, q))
        divot_fatal("Vernier ratio p=%u q=%u not coprime: the reference "
                    "pattern would repeat early and PDM degenerates", p, q);
    // p * f_m = q * f_s  =>  T_s = (q/p) * T_m, and the common period
    // is p * T_s = q * T_m: over p successive waveform repetitions the
    // modulation completes exactly q periods, so the phase at a fixed
    // waveform-relative time t0 steps through p distinct values
    // (gcd(p, q) = 1 guarantees no early repeat).
    const double t_m = 1.0 / wave.frequency();
    const double t_s =
        t_m * static_cast<double>(q) / static_cast<double>(p);
    std::vector<double> levels(p);
    for (unsigned r = 0; r < p; ++r)
        levels[r] = wave.valueAt(static_cast<double>(r) * t_s + t0);
    return levels;
}

} // namespace divot
