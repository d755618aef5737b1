#include "txline/born.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.hh"

namespace divot {

BornTdrModel::BornTdrModel(const TransmissionLine &line)
    : line_(line)
{
}

Waveform
BornTdrModel::probe(const EdgeShape &edge, double dt,
                    double capture_time) const
{
    const std::size_t n = line_.segments();
    const double seg_dt = line_.segmentLength() / line_.velocity();
    if (dt <= 0.0)
        dt = seg_dt;
    if (capture_time <= 0.0)
        capture_time = 1.5 * line_.roundTripDelay() + 3.0 * edge.duration();
    const std::size_t steps =
        static_cast<std::size_t>(std::ceil(capture_time / dt));

    const double launch_gain =
        line_.impedanceAt(0) /
        (line_.sourceImpedance() + line_.impedanceAt(0));
    const double edge_center = 1.5 * edge.duration();
    const double a2 =
        line_.segmentAttenuation() * line_.segmentAttenuation();

    // Collect each single-bounce echo: arrival time, amplitude, and
    // the sample window [lo, hi] its transition spans, clipped to the
    // record (lo > hi for an echo that arrives past its end).
    const double dur = edge.duration();
    struct Echo { double t; double amp; long lo; long hi; };
    std::vector<Echo> echoes;
    echoes.reserve(n);
    const auto addEcho = [&](double t, double amp) {
        const double t_start = t + edge_center - dur / 2.0;
        const double t_stop = t + edge_center + dur / 2.0;
        const long lo = static_cast<long>(std::floor(t_start / dt));
        const long hi = static_cast<long>(std::ceil(t_stop / dt));
        echoes.push_back({t, amp, std::max(0L, lo),
                          std::min(hi, static_cast<long>(steps) - 1)});
    };
    double fwd = launch_gain;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        fwd *= a2;
        const double r = line_.junctionReflection(i);
        addEcho(static_cast<double>(2 * (i + 1)) * seg_dt, fwd * r);
        fwd *= (1.0 - r * r);
    }
    fwd *= a2;
    addEcho(static_cast<double>(2 * n) * seg_dt,
            fwd * line_.loadReflection());

    // Superpose each echo as a shifted copy of the edge *deviation*:
    // zero before its window, the raised cosine inside it, a constant
    // plateau after it. Sample i sums, in echo order, the plateaus of
    // the echoes whose window closed before i, then the transitions
    // of the echoes whose window holds i — the adds a per-echo sweep
    // of the record makes at sample i, in the same order, so every
    // sample rounds identically. Windows rise with echo index (as
    // arrival times do), so the closed echoes are a prefix whose
    // plateau sum carries from one sample to the next: the render
    // costs O(samples x window), not O(samples x echoes).
    Waveform out = Waveform::zeros(dt, steps);
    const double plateau =
        edge.kind() == EdgeKind::Falling ? -edge.amplitude()
                                         : edge.amplitude();
    double closed = 0.0;      // plateau sum of echoes [0, first)
    std::size_t first = 0;    // first echo whose window is not closed
    for (std::size_t i = 0; i < steps; ++i) {
        const long at = static_cast<long>(i);
        while (first < echoes.size() && echoes[first].hi < at) {
            closed += echoes[first].amp * plateau;
            ++first;
        }
        const double t = static_cast<double>(i) * dt;
        double v = closed;
        for (std::size_t e = first;
             e < echoes.size() && echoes[e].lo <= at; ++e) {
            v += echoes[e].amp *
                edge.deviationAt(t - echoes[e].t - edge_center);
        }
        out[i] = v;
    }
    return out;
}

} // namespace divot
