/**
 * @file
 * Physics tests for the traveling-wave lattice simulator and its
 * first-order Born approximation: matched-line silence, echo timing,
 * echo polarity, energy conservation, and Born-vs-lattice agreement
 * on weak (PCB-like) inhomogeneity.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "txline/born.hh"
#include "txline/lattice.hh"
#include "txline/manufacturing.hh"

namespace divot {
namespace {

constexpr double kV = 1.5e8;
constexpr double kSeg = 0.5e-3;

TransmissionLine
uniformLine(std::size_t n, double z0 = 50.0, double zs = 50.0,
            double zl = 50.0, double loss = 0.0)
{
    return TransmissionLine(std::vector<double>(n, z0), kSeg, kV, zs,
                            zl, loss, "u");
}

EdgeShape
probeEdge()
{
    return EdgeShape(0.8, 25e-12);
}

TEST(Lattice, MatchedUniformLineIsSilent)
{
    const auto line = uniformLine(200);
    LatticeSimulator sim(line);
    const auto trace = sim.probe(probeEdge());
    EXPECT_LT(trace.reflection.peakAbs(), 1e-12);
}

TEST(Lattice, OpenishLoadEchoArrivesAtRoundTrip)
{
    const auto line = uniformLine(200, 50.0, 50.0, 500.0);
    LatticeSimulator sim(line);
    const auto trace = sim.probe(probeEdge());
    const std::size_t peak = trace.reflection.peakIndex();
    const double t_peak = trace.reflection.timeAt(peak);
    const double expected = line.roundTripDelay();
    // Echo center lands at round trip + edge centering offset.
    EXPECT_NEAR(t_peak, expected + 1.5 * probeEdge().duration(),
                2.0 * probeEdge().duration());
    // High-impedance load reflects with positive polarity.
    EXPECT_GT(trace.reflection[peak], 0.0);
}

TEST(Lattice, LowImpedanceLoadEchoNegative)
{
    const auto line = uniformLine(200, 50.0, 50.0, 5.0);
    LatticeSimulator sim(line);
    const auto trace = sim.probe(probeEdge());
    EXPECT_LT(trace.reflection[trace.reflection.peakIndex()], 0.0);
}

TEST(Lattice, EchoAmplitudeMatchesReflectionCoefficient)
{
    const double zl = 75.0;
    const auto line = uniformLine(300, 50.0, 50.0, zl);
    LatticeSimulator sim(line);
    const auto trace = sim.probe(probeEdge());
    const double rho = (zl - 50.0) / (zl + 50.0);
    // Incident amplitude: 0.8 V through the 50/50 divider = 0.4 V.
    const double expected = 0.4 * rho;
    EXPECT_NEAR(trace.reflection.peakAbs(), std::fabs(expected),
                std::fabs(expected) * 0.02);
}

TEST(Lattice, LoadVoltageStepsToDividerValue)
{
    // Matched line, resistive load: after settling, the load sees the
    // source voltage divided by Zs + Zl.
    const double zl = 50.0;
    const auto line = uniformLine(100, 50.0, 50.0, zl);
    LatticeSimulator sim(line);
    const auto trace = sim.probe(probeEdge());
    const double settled = trace.loadVoltage[trace.loadVoltage.size() - 1];
    EXPECT_NEAR(settled, 0.4, 0.01);  // 0.8 * 50/(50+50)
}

TEST(Lattice, EnergyConservedOnLosslessLine)
{
    // Lossless, mismatched everything: energy injected equals energy
    // reflected back into the source plus energy delivered to the
    // load (power = V^2 / Z per traveling wave).
    Rng rng(3);
    auto delta = correlatedGaussianProfile(300, 0.05, 8.0, rng);
    std::vector<double> z(300);
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = 50.0 * (1.0 + delta[i]);
    TransmissionLine line(z, kSeg, kV, 50.0, 65.0, 0.0, "e");
    LatticeSimulator sim(line);
    // Long capture so everything settles.
    const auto trace = sim.probe(probeEdge(),
                                 6.0 * line.roundTripDelay());

    // The incident wave carries V^2/Z0 per unit time; the reflected
    // wave V^2/Z0; the load wave V^2/Zl. For a *step* probe the tail
    // is DC, so compare instantaneous power balance after settling:
    // P_in - P_refl = P_load.
    const std::size_t i_end = trace.incident.size() - 1;
    const double v_inc = trace.incident[i_end];
    const double v_ref = trace.reflection[i_end];
    const double v_load = trace.loadVoltage[i_end];
    const double p_in = v_inc * v_inc / line.impedanceAt(0);
    const double p_ref = v_ref * v_ref / line.impedanceAt(0);
    const double p_load = v_load * v_load / line.loadImpedance();
    // Steady state: net forward power equals delivered power. The
    // cross term between incident and reflected DC components makes
    // the exact balance (V_inc^2 - V_ref^2)/Z0 for superposed waves.
    EXPECT_NEAR(p_in - p_ref, p_load, 0.05 * p_load);
}

TEST(Lattice, LossReducesEchoAmplitude)
{
    const auto lossless = uniformLine(300, 50.0, 50.0, 100.0, 0.0);
    const auto lossy = uniformLine(300, 50.0, 50.0, 100.0, 3.0);
    LatticeSimulator s1(lossless), s2(lossy);
    const double a1 = s1.probe(probeEdge()).reflection.peakAbs();
    const double a2 = s2.probe(probeEdge()).reflection.peakAbs();
    EXPECT_LT(a2, a1);
    // Two-way attenuation over 0.15 m at 3 Np/m: exp(-0.9).
    EXPECT_NEAR(a2 / a1, std::exp(-2.0 * 3.0 * 0.15), 0.02);
}

TEST(IdealProfile, MatchesLineGeometry)
{
    const auto line = uniformLine(100, 50.0, 50.0, 75.0);
    const auto prof = idealReflectionProfile(line);
    // Only the load echo: at index 2n.
    const std::size_t peak = prof.peakIndex();
    EXPECT_EQ(peak, 200u);
    EXPECT_NEAR(prof[peak], 0.2, 1e-12);
}

TEST(BornVsLattice, AgreeOnWeakInhomogeneity)
{
    Rng rng(5);
    auto delta = correlatedGaussianProfile(400, 0.05, 8.0, rng);
    std::vector<double> z(400);
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = 50.0 * (1.0 + delta[i]);
    TransmissionLine line(z, kSeg, kV, 50.0, 50.5, 0.2, "bl");

    LatticeSimulator lat(line);
    BornTdrModel born(line);
    const auto exact = lat.probe(probeEdge());
    const auto approx = born.probe(probeEdge());

    // Compare on the common span: correlation > 0.99 and RMS error
    // below 5 % of the signal RMS (multiple reflections are second
    // order in rho ~ 2.5e-2).
    const std::size_t n = std::min(exact.reflection.size(),
                                   approx.size());
    double dot = 0.0, ee = 0.0, aa = 0.0, err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double e = exact.reflection[i];
        const double a = approx.valueAt(exact.reflection.timeAt(i));
        dot += e * a;
        ee += e * e;
        aa += a * a;
        err += (e - a) * (e - a);
    }
    const double corr = dot / std::sqrt(ee * aa);
    EXPECT_GT(corr, 0.99);
    EXPECT_LT(std::sqrt(err / ee), 0.1);
}

TEST(BornVsLattice, TimingOfLoadEchoIdentical)
{
    const auto line = uniformLine(250, 50.0, 50.0, 80.0);
    LatticeSimulator lat(line);
    BornTdrModel born(line);
    const auto exact = lat.probe(probeEdge());
    const auto approx = born.probe(probeEdge());
    const double t1 = exact.reflection.timeAt(exact.reflection.peakIndex());
    const double t2 = approx.timeAt(approx.peakIndex());
    EXPECT_NEAR(t1, t2, 3.0 * probeEdge().duration());
}

TEST(Lattice, TimeStepIsSegmentTransit)
{
    const auto line = uniformLine(10);
    LatticeSimulator sim(line);
    EXPECT_DOUBLE_EQ(sim.timeStep(), kSeg / kV);
}

/** One FNV-1a 64 step over the bytes of `value`. */
template <typename T>
uint64_t
fnv1a(uint64_t h, const T &value)
{
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Pinned bytes of BornTdrModel::probe(): FNV-1a over every sample of
 * 128 fabricated lines of 2-32 cm, each probed with a rising or a
 * falling edge, at the segment transit time or an explicit dt from a
 * quarter of it to past the edge's duration, and over the default
 * capture span or one clipped to 0.2-1.2 round trips (which cuts
 * echo transitions at the record's end and drops later echoes
 * whole). Any change to the order or rounding of the superposition
 * moves the digest.
 */
TEST(BornPins, ProbeSamplesAcrossLinesEdgesAndSpans)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(19));
    Rng pick(23);
    uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t samples = 0;
    for (unsigned k = 0; k < 128; ++k) {
        const double length = pick.uniform(0.02, 0.32);
        TransmissionLine line(fab.drawImpedanceProfile(length, kSeg), kSeg,
                              params.velocity, 50.0,
                              pick.uniform(30.0, 80.0),
                              params.lossNeperPerMeter, "pin");
        const EdgeShape edge(0.8, pick.uniform(10e-12, 40e-12),
                             (k & 1) != 0 ? EdgeKind::Falling
                                          : EdgeKind::Rising);
        const double seg_dt = kSeg / params.velocity;
        const double dt =
            (k & 2) != 0 ? pick.uniform(0.25, 24.0) * seg_dt : 0.0;
        const double span = (k & 4) != 0
            ? pick.uniform(0.2, 1.2) * line.roundTripDelay()
            : 0.0;
        const Waveform w = BornTdrModel(line).probe(edge, dt, span);
        h = fnv1a(h, w.size());
        h = fnv1a(h, w.dt());
        for (std::size_t i = 0; i < w.size(); ++i)
            h = fnv1a(h, w[i]);
        samples += w.size();
    }
    EXPECT_EQ(samples, 54590u);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, h);
    EXPECT_EQ(h, 0x3c41303d246a388aULL) << hex;
}

} // namespace
} // namespace divot
