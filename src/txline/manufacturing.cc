#include "txline/manufacturing.hh"

#include <cmath>

#include "util/logging.hh"

namespace divot {

ManufacturingProcess::ManufacturingProcess(ProcessParams params, Rng rng)
    : params_(params), rng_(rng)
{
    if (params.nominalImpedance <= 0.0)
        divot_fatal("nominal impedance must be positive (got %g)",
                    params.nominalImpedance);
    if (params.relativeSigma < 0.0 || params.relativeSigma >= 0.5)
        divot_fatal("relativeSigma out of sane range (got %g)",
                    params.relativeSigma);
    if (params.correlationLength <= 0.0)
        divot_fatal("correlationLength must be positive (got %g)",
                    params.correlationLength);
}

std::vector<double>
ManufacturingProcess::drawImpedanceProfile(double length,
                                           double segment_length)
{
    // The negation of the valid range, so NaN and infinities fail it.
    if (!(std::isfinite(length) && std::isfinite(segment_length) &&
          segment_length > 0.0 && segment_length <= length)) {
        divot_fatal("bad line geometry: length=%g segment=%g",
                    length, segment_length);
    }
    const std::size_t n =
        static_cast<std::size_t>(std::round(length / segment_length));
    Rng line_rng = rng_.fork(++drawCounter_);
    const double corr_pts = params_.correlationLength / segment_length;
    auto delta = correlatedGaussianProfile(n, params_.relativeSigma,
                                           corr_pts, line_rng);

    // Mix in the lot-shared (panel-level) component at the configured
    // energy fraction; lines from the same lot correlate by exactly
    // this amount.
    const double f = params_.commonModeFraction;
    if (f > 0.0) {
        auto it = shared_.find(n);
        if (it == shared_.end()) {
            Rng lot_rng = rng_.fork(0xc0117);
            it = shared_.emplace(
                n, correlatedGaussianProfile(
                       n, params_.relativeSigma, corr_pts, lot_rng))
                     .first;
        }
        const double own = std::sqrt(1.0 - f);
        const double shared = std::sqrt(f);
        for (std::size_t i = 0; i < n; ++i)
            delta[i] = own * delta[i] + shared * it->second[i];
    }

    std::vector<double> z(n);
    for (std::size_t i = 0; i < n; ++i)
        z[i] = params_.nominalImpedance * (1.0 + delta[i]);
    return z;
}

std::vector<double>
correlatedGaussianProfile(std::size_t n, double sigma,
                          double correlation_points, Rng &rng)
{
    if (n == 0)
        return {};

    // Gaussian-kernel smoothing of white noise. The kernel half-width
    // is set so the output autocorrelation length ~= requested.
    const double kw = std::max(correlation_points, 1e-9);
    const long half = std::max(1L, static_cast<long>(std::ceil(3.0 * kw)));
    std::vector<double> kernel(static_cast<std::size_t>(2 * half + 1));
    double ksq = 0.0;
    for (long k = -half; k <= half; ++k) {
        const double v =
            std::exp(-0.5 * (static_cast<double>(k) / kw) *
                     (static_cast<double>(k) / kw));
        kernel[static_cast<std::size_t>(k + half)] = v;
        ksq += v * v;
    }
    // Normalize so the smoothed process keeps unit variance.
    const double norm = 1.0 / std::sqrt(ksq);
    for (auto &v : kernel)
        v *= norm;

    // Extended white-noise buffer so every output point sees a full
    // kernel (no edge variance droop).
    std::vector<double> white(n + static_cast<std::size_t>(2 * half));
    for (auto &w : white)
        w = rng.gaussian();

    std::vector<double> out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < kernel.size(); ++j)
            acc += kernel[j] * white[i + j];
        out[i] = sigma * acc;
    }
    return out;
}

} // namespace divot
