#include "fingerprint/study.hh"

#include <cmath>
#include <memory>

#include "itdr/budget.hh"
#include "signal/noise.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot {

namespace {

// Stable fork tags: every lane derives its streams from the master
// seed and its indices alone (Rng::forkStable is pure), so execution
// order — and therefore the thread count — cannot perturb any draw.
constexpr uint64_t kTagNominalItdr = 0x2badULL;
constexpr uint64_t kTagLaneItdr = 0x3000ULL;
constexpr uint64_t kTagLaneCalibEnv = 0x40000ULL;
constexpr uint64_t kTagLaneCampaignEnv = 0x80000ULL;

} // namespace

GenuineImpostorStudy::GenuineImpostorStudy(StudyConfig config, Rng rng)
    : config_(config), rng_(rng)
{
    if (config_.lines < 2)
        divot_fatal("study needs at least 2 lines (got %zu)",
                    config_.lines);
    if (config_.wires == 0)
        divot_fatal("study needs at least 1 wire per bus");
    // Written as negations of the valid ranges, so NaN fails them too.
    if (!(std::isfinite(config_.lineLength) && config_.lineLength > 0.0))
        divot_fatal("study lineLength must be finite and > 0 (got %g)",
                    config_.lineLength);
    if (!(std::isfinite(config_.segmentLength) &&
          config_.segmentLength > 0.0)) {
        divot_fatal("study segmentLength must be finite and > 0 (got %g)",
                    config_.segmentLength);
    }
    if (!(std::isfinite(config_.loadImpedanceSigma) &&
          config_.loadImpedanceSigma >= 0.0)) {
        divot_fatal("study loadImpedanceSigma must be finite and >= 0 "
                    "(got %g)",
                    config_.loadImpedanceSigma);
    }
    // A lane enrolls at its last enrollment measurement, and the ROC
    // needs both score populations.
    if (config_.enrollReps == 0)
        divot_fatal("study enrollReps must be at least 1");
    if (config_.genuinePerLine == 0)
        divot_fatal("study genuinePerLine must be at least 1");
    if (config_.impostorPerPair == 0)
        divot_fatal("study impostorPerPair must be at least 1");

    ManufacturingProcess fab(config_.process, rng_.fork(0x2001));
    Rng load_rng = rng_.fork(0x2002);
    lines_.reserve(config_.lines * config_.wires);
    for (std::size_t l = 0; l < config_.lines; ++l) {
        for (std::size_t w = 0; w < config_.wires; ++w) {
            auto z = fab.drawImpedanceProfile(config_.lineLength,
                                              config_.segmentLength);
            const double load = config_.process.nominalImpedance +
                load_rng.gaussian(0.0, config_.loadImpedanceSigma);
            lines_.emplace_back(std::move(z), config_.segmentLength,
                                config_.process.velocity,
                                config_.process.nominalImpedance, load,
                                config_.process.lossNeperPerMeter,
                                "line" + std::to_string(l) + "w" +
                                    std::to_string(w));
        }
    }
}

StudyResult
GenuineImpostorStudy::run()
{
    const std::size_t nl = config_.lines;
    const std::size_t nw = config_.wires;
    const std::size_t reps_e = config_.enrollReps;
    const std::size_t reps_g = config_.genuinePerLine;
    const std::size_t reps_i = config_.impostorPerPair;
    const std::size_t lane_count = nl * nw;

    // Nominal design response: a perfectly uniform line of the same
    // geometry, on the same bin grid.
    TransmissionLine nominal_line(
        std::vector<double>(
            static_cast<std::size_t>(std::round(config_.lineLength /
                                                config_.segmentLength)),
            config_.process.nominalImpedance),
        config_.segmentLength, config_.process.velocity,
        config_.process.nominalImpedance,
        config_.process.nominalImpedance,
        config_.process.lossNeperPerMeter, "nominal");
    {
        ITdr nominal_itdr(config_.itdr, rng_.forkStable(kTagNominalItdr));
        nominal_ = nominal_itdr.idealIip(nominal_line);
    }

    // Explicit wall-clock schedule: measurement k of the canonical
    // enumeration (enrollment, then genuine, then impostor, wires
    // innermost) starts at k * slot. The schedule is fixed up front so
    // environment snapshots (vibration chirp phase, oven temperature
    // draws) cannot depend on which thread ran which lane first.
    const double gap = 100e-6;  // pause between measurements
    const MeasurementBudget budget =
        predictBudget(config_.itdr, lines_.front().roundTripDelay());
    const double slot = budget.expectedDuration + gap;
    const std::size_t enroll_total = lane_count * reps_e;
    const std::size_t genuine_total = nl * reps_g * nw;

    auto enroll_index = [=](std::size_t lane, std::size_t r) {
        return lane * reps_e + r;
    };
    auto genuine_index = [=](std::size_t l, std::size_t g,
                             std::size_t w) {
        return enroll_total + (l * reps_g + g) * nw + w;
    };
    auto impostor_index = [=](std::size_t a, std::size_t pair_rank,
                              std::size_t i, std::size_t w) {
        return enroll_total + genuine_total +
            ((a * (nl - 1) + pair_rank) * reps_i + i) * nw + w;
    };

    // One measurement lane per wire interface, as in hardware: the
    // instrument enrolls its line, then produces every genuine and
    // impostor measurement of that line, in a fixed per-lane order.
    struct Lane
    {
        std::unique_ptr<ITdr> itdr;
        std::unique_ptr<Environment> calibEnv;
        std::unique_ptr<Environment> campaignEnv;
        std::unique_ptr<NoiseSource> emi;
        std::vector<IipMeasurement> enrollMeasurements;
        Fingerprint enrolled;
        std::vector<double> genuineScores;
        std::vector<double> impostorScores;
        uint64_t busCycles = 0;
    };
    const EnvironmentConditions calib;  // room temperature, quiet bench
    std::vector<Lane> lanes(lane_count);
    for (std::size_t idx = 0; idx < lane_count; ++idx) {
        Lane &lane = lanes[idx];
        lane.itdr = std::make_unique<ITdr>(
            config_.itdr, rng_.forkStable(kTagLaneItdr + idx));
        lane.calibEnv = std::make_unique<Environment>(
            calib, rng_.forkStable(kTagLaneCalibEnv + idx));
        lane.campaignEnv = std::make_unique<Environment>(
            config_.environment,
            rng_.forkStable(kTagLaneCampaignEnv + idx));
        if (config_.environment.emiAmplitude > 0.0) {
            // Deterministic function of time: per-lane instances see
            // identical interference regardless of sharing.
            lane.emi = std::make_unique<SinusoidalInterference>(
                config_.environment.emiAmplitude,
                config_.environment.emiFrequencyHz, 0.3);
        }
        lane.enrollMeasurements.reserve(reps_e);
        lane.genuineScores.resize(reps_g);
        lane.impostorScores.resize((nl - 1) * reps_i);
        if (config_.telemetry != nullptr) {
            lane.itdr->attachTelemetry(config_.telemetry,
                                       "itdr." + lines_[idx].name());
        }
    }

    // Each lane is a chain of measurements that must run in order, but
    // not on one thread: the pool hands out single measurements, so
    // every worker stays busy however the lane count divides among
    // them.
    ThreadPool pool(config_.threads);
    pool.attachTelemetry(config_.telemetry, "study.pool");

    // --- enrollment at reference conditions (calibration time); a
    //     lane enrolls at its last measurement ---
    pool.parallelChains(lane_count, reps_e, [&](std::size_t idx,
                                                std::size_t r) {
        Lane &lane = lanes[idx];
        const double wall = slot * static_cast<double>(enroll_index(idx, r));
        TransmissionLine snap = lane.calibEnv->snapshot(lines_[idx], wall);
        IipMeasurement m = lane.itdr->measure(snap, nullptr);
        lane.busCycles += m.busCycles;
        lane.enrollMeasurements.push_back(std::move(m));
        if (r + 1 == reps_e) {
            lane.enrolled = Fingerprint::enroll(
                lane.enrollMeasurements, nominal_, lines_[idx].name());
            lane.enrollMeasurements = {};
        }
    });

    // --- genuine, then impostor measurements of each lane; the
    //     barrier above guarantees every enrollment is readable ---
    pool.parallelChains(
        lane_count, reps_g + (nl - 1) * reps_i,
        [&](std::size_t idx, std::size_t step) {
            Lane &lane = lanes[idx];
            const std::size_t l = idx / nw;
            const std::size_t w = idx % nw;

            auto measure_at = [&](std::size_t k) {
                const double wall = slot * static_cast<double>(k);
                TransmissionLine snap =
                    lane.campaignEnv->snapshot(lines_[idx], wall);
                IipMeasurement m =
                    lane.itdr->measure(snap, lane.emi.get());
                lane.busCycles += m.busCycles;
                return Fingerprint::fromMeasurement(m, nominal_);
            };

            if (step < reps_g) {
                // Genuine: re-measure this bus under the campaign
                // environment and compare to its own enrollment.
                lane.genuineScores[step] = similarity(
                    lane.enrolled, measure_at(genuine_index(l, step, w)));
                return;
            }
            // Impostor: a measurement of this bus scored against the
            // enrollment of bus b, every other bus in ascending order.
            const std::size_t k = step - reps_g;
            const std::size_t pair_rank = k / reps_i;
            const std::size_t i = k % reps_i;
            const std::size_t b = pair_rank < l ? pair_rank : pair_rank + 1;
            lane.impostorScores[k] =
                similarity(lanes[b * nw + w].enrolled,
                           measure_at(impostor_index(l, pair_rank, i, w)));
        });

    // --- fuse per-wire scores and analyze, in canonical order ---
    StudyResult result;
    for (const Lane &lane : lanes) {
        result.totalBusCycles += lane.busCycles;
        const TraceCache &cache = lane.itdr->traceCache();
        result.cacheHits += cache.hits();
        result.cacheMisses += cache.misses();
        result.cacheEvictions += cache.evictions();
    }

    std::vector<double> per_wire(nw);
    result.genuine.reserve(nl * reps_g);
    for (std::size_t l = 0; l < nl; ++l) {
        for (std::size_t g = 0; g < reps_g; ++g) {
            for (std::size_t w = 0; w < nw; ++w)
                per_wire[w] = lanes[l * nw + w].genuineScores[g];
            result.genuine.push_back(fuseScores(config_.fusion, per_wire));
        }
    }

    result.impostor.reserve(nl * (nl - 1) * reps_i);
    for (std::size_t a = 0; a < nl; ++a) {
        std::size_t pair_rank = 0;
        for (std::size_t b = 0; b < nl; ++b) {
            if (b == a)
                continue;
            for (std::size_t i = 0; i < reps_i; ++i) {
                for (std::size_t w = 0; w < nw; ++w) {
                    per_wire[w] = lanes[a * nw + w]
                        .impostorScores[pair_rank * reps_i + i];
                }
                result.impostor.push_back(
                    fuseScores(config_.fusion, per_wire));
            }
            ++pair_rank;
        }
    }

    result.roc = analyzeRoc(result.genuine, result.impostor);
    result.decidability =
        decidabilityIndex(result.genuine, result.impostor);
    result.fittedEer = gaussianFitEer(result.genuine, result.impostor);

    // Study-level accounting, recorded serially after the barrier so
    // the values are final.
    if (config_.telemetry != nullptr && config_.telemetry->enabled()) {
        Registry &reg = config_.telemetry->registry();
        reg.counter("study.lanes").add(lane_count);
        reg.counter("study.scores.genuine").add(result.genuine.size());
        reg.counter("study.scores.impostor").add(result.impostor.size());
        reg.counter("study.bus_cycles").add(result.totalBusCycles);
        reg.counter("study.cache.hits").add(result.cacheHits);
        reg.counter("study.cache.misses").add(result.cacheMisses);
        reg.counter("study.cache.evictions").add(result.cacheEvictions);
    }
    return result;
}

} // namespace divot
