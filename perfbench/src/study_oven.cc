/**
 * @file
 * Workload `study-oven`: GenuineImpostorStudy::run at the paper's
 * population (6 lines x 1 wire, 16 enrollment / 64 genuine per line /
 * 8 impostor per ordered pair = 720 iTDR measurements per campaign)
 * under the Fig. 8 oven: every campaign measurement draws its
 * temperature in 23..75 C, so the content-keyed trace cache mostly
 * misses and rendering, strobing, reconstruction and fingerprint
 * extraction do the work. Library-default Sampled strobe engine.
 *
 * Untraced run: time whole run() calls. Traced run: additionally
 * replay the same campaign through the layers' public calls with a
 * span around each, and require the replica's scores to equal run()'s
 * bit for bit, which proves the breakdown describes the same program.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "common.hh"
#include "fingerprint/fusion.hh"
#include "fingerprint/study.hh"
#include "itdr/budget.hh"
#include "itdr/kernels/kernels.hh"
#include "load.hh"
#include "telemetry/telemetry.hh"
#include "trace.hh"
#include "util/roc.hh"
#include "util/thread_pool.hh"

namespace perfbench {

using namespace divot;

namespace {

// Fork tags of GenuineImpostorStudy (fingerprint/study.cc). The
// replica derives every stream exactly as the library does.
constexpr uint64_t kTagFab = 0x2001;
constexpr uint64_t kTagLoad = 0x2002;
constexpr uint64_t kTagNominalItdr = 0x2badULL;
constexpr uint64_t kTagLaneItdr = 0x3000ULL;
constexpr uint64_t kTagLaneCalibEnv = 0x40000ULL;
constexpr uint64_t kTagLaneCampaignEnv = 0x80000ULL;

constexpr int kSetups = 3; //!< fresh studies timed for setup_s

StudyConfig
makeConfig(const Options &opt)
{
    StudyConfig cfg; // paper population and default reps
    if (opt.tiny) {
        cfg.lines = 3;
        cfg.lineLength = 0.1;
        cfg.enrollReps = 4;
        cfg.genuinePerLine = 8;
        cfg.impostorPerPair = 2;
    }
    cfg.environment.temperatureC = 23.0;
    cfg.environment.temperatureSwingHiC = 75.0; // Fig. 8 oven
    cfg.threads = opt.threads;
    return cfg;
}

std::size_t
measurementsPerCampaign(const StudyConfig &cfg)
{
    return cfg.lines * cfg.wires *
        (cfg.enrollReps + cfg.genuinePerLine +
         (cfg.lines - 1) * cfg.impostorPerPair);
}

uint64_t
scoreDigest(const std::vector<double> &genuine,
            const std::vector<double> &impostor)
{
    uint64_t h = kFnvBasis;
    for (const double s : genuine)
        h = foldDouble(h, s);
    h = foldU64(h, impostor.size());
    for (const double s : impostor)
        h = foldDouble(h, s);
    return h;
}

/** Lines and the post-construction master stream, fabricated exactly
 *  as GenuineImpostorStudy's constructor does. */
struct Fabricated
{
    std::vector<TransmissionLine> lines;
    Rng rng;
};

Fabricated
fabricate(const StudyConfig &cfg, uint64_t seed, Tracer &tr)
{
    Fabricated out{{}, Rng(seed)};
    ManufacturingProcess fab(cfg.process, out.rng.fork(kTagFab));
    Rng load_rng = out.rng.fork(kTagLoad);
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        for (std::size_t w = 0; w < cfg.wires; ++w) {
            auto span = tr.span("txline.fabricate");
            auto z = fab.drawImpedanceProfile(cfg.lineLength,
                                              cfg.segmentLength);
            const double load = cfg.process.nominalImpedance +
                load_rng.gaussian(0.0, cfg.loadImpedanceSigma);
            out.lines.emplace_back(std::move(z), cfg.segmentLength,
                                   cfg.process.velocity,
                                   cfg.process.nominalImpedance, load,
                                   cfg.process.lossNeperPerMeter,
                                   "line" + std::to_string(l) + "w" +
                                       std::to_string(w));
        }
    }
    return out;
}

struct ReplicaResult
{
    std::vector<double> genuine;
    std::vector<double> impostor;
    uint64_t busCycles = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    double eer = 0.0;
    double dprime = 0.0;
    double fittedEer = 0.0;
};

/**
 * One campaign through the layers' public calls, mirroring
 * GenuineImpostorStudy::run step for step (same streams, same
 * wall-clock schedule, same lane order), with a span around each
 * call. `tm` collects the instruments' engine/kernel counters.
 */
ReplicaResult
replicaCampaign(const StudyConfig &cfg, const Fabricated &fab, Tracer &tr,
                Telemetry &tm)
{
    auto root = tr.span("study.campaign");
    const std::vector<TransmissionLine> &lines = fab.lines;
    const Rng &rng = fab.rng;
    const std::size_t nl = cfg.lines;
    const std::size_t nw = cfg.wires;
    const std::size_t reps_e = cfg.enrollReps;
    const std::size_t reps_g = cfg.genuinePerLine;
    const std::size_t reps_i = cfg.impostorPerPair;
    const std::size_t lane_count = nl * nw;

    Waveform nominal;
    {
        auto span = tr.span("itdr.ideal_iip");
        TransmissionLine nominal_line(
            std::vector<double>(
                static_cast<std::size_t>(
                    std::round(cfg.lineLength / cfg.segmentLength)),
                cfg.process.nominalImpedance),
            cfg.segmentLength, cfg.process.velocity,
            cfg.process.nominalImpedance, cfg.process.nominalImpedance,
            cfg.process.lossNeperPerMeter, "nominal");
        ITdr nominal_itdr(cfg.itdr, rng.forkStable(kTagNominalItdr));
        nominal = nominal_itdr.idealIip(nominal_line);
    }

    const double gap = 100e-6;
    const MeasurementBudget budget =
        predictBudget(cfg.itdr, lines.front().roundTripDelay());
    const double slot = budget.expectedDuration + gap;
    const std::size_t enroll_total = lane_count * reps_e;
    const std::size_t genuine_total = nl * reps_g * nw;

    struct Lane
    {
        std::unique_ptr<ITdr> itdr;
        std::unique_ptr<Environment> calibEnv;
        std::unique_ptr<Environment> campaignEnv;
        Fingerprint enrolled;
        std::vector<double> genuineScores;
        std::vector<double> impostorScores;
        uint64_t busCycles = 0;
    };
    std::vector<Lane> lanes(lane_count);
    {
        auto span = tr.span("itdr.construct");
        const EnvironmentConditions calib;
        for (std::size_t idx = 0; idx < lane_count; ++idx) {
            Lane &lane = lanes[idx];
            lane.itdr = std::make_unique<ITdr>(
                cfg.itdr, rng.forkStable(kTagLaneItdr + idx));
            lane.calibEnv = std::make_unique<Environment>(
                calib, rng.forkStable(kTagLaneCalibEnv + idx));
            lane.campaignEnv = std::make_unique<Environment>(
                cfg.environment, rng.forkStable(kTagLaneCampaignEnv + idx));
            lane.genuineScores.resize(reps_g);
            lane.impostorScores.resize((nl - 1) * reps_i);
            lane.itdr->attachTelemetry(&tm, "itdr." + lines[idx].name());
        }
    }

    auto measured = [&](Lane &lane, Environment &env, std::size_t idx,
                        std::size_t k) {
        TransmissionLine snap = [&] {
            auto span = tr.span("txline.snapshot");
            return env.snapshot(lines[idx],
                                slot * static_cast<double>(k));
        }();
        auto span = tr.span("itdr.measure");
        IipMeasurement m = lane.itdr->measure(snap, nullptr);
        lane.busCycles += m.busCycles;
        return m;
    };

    ThreadPool pool(cfg.threads);
    {
        auto phase = tr.span("util.pool_phase");
        const int parent = phase.id();
        pool.parallelFor(lane_count, [&](std::size_t idx) {
            auto task = tr.spanUnder("study.lane_task", parent);
            Lane &lane = lanes[idx];
            std::vector<IipMeasurement> reps;
            reps.reserve(reps_e);
            for (std::size_t r = 0; r < reps_e; ++r)
                reps.push_back(
                    measured(lane, *lane.calibEnv, idx, idx * reps_e + r));
            auto span = tr.span("fingerprint.extract");
            lane.enrolled =
                Fingerprint::enroll(reps, nominal, lines[idx].name());
        });
    }
    {
        auto phase = tr.span("util.pool_phase");
        const int parent = phase.id();
        pool.parallelFor(lane_count, [&](std::size_t idx) {
            auto task = tr.spanUnder("study.lane_task", parent);
            Lane &lane = lanes[idx];
            const std::size_t l = idx / nw;
            const std::size_t w = idx % nw;
            auto score = [&](std::size_t k, const Fingerprint &against) {
                const IipMeasurement m =
                    measured(lane, *lane.campaignEnv, idx, k);
                const Fingerprint fp = [&] {
                    auto span = tr.span("fingerprint.extract");
                    return Fingerprint::fromMeasurement(m, nominal);
                }();
                auto span = tr.span("fingerprint.similarity");
                return similarity(against, fp);
            };
            for (std::size_t g = 0; g < reps_g; ++g) {
                lane.genuineScores[g] = score(
                    enroll_total + (l * reps_g + g) * nw + w,
                    lane.enrolled);
            }
            std::size_t pair_rank = 0;
            for (std::size_t b = 0; b < nl; ++b) {
                if (b == l)
                    continue;
                for (std::size_t i = 0; i < reps_i; ++i) {
                    const std::size_t k = enroll_total + genuine_total +
                        ((l * (nl - 1) + pair_rank) * reps_i + i) * nw + w;
                    lane.impostorScores[pair_rank * reps_i + i] =
                        score(k, lanes[b * nw + w].enrolled);
                }
                ++pair_rank;
            }
        });
    }

    ReplicaResult out;
    for (const Lane &lane : lanes) {
        out.busCycles += lane.busCycles;
        out.cacheHits += lane.itdr->traceCache().hits();
        out.cacheMisses += lane.itdr->traceCache().misses();
    }
    {
        auto span = tr.span("fingerprint.fusion");
        std::vector<double> per_wire(nw);
        for (std::size_t l = 0; l < nl; ++l) {
            for (std::size_t g = 0; g < reps_g; ++g) {
                for (std::size_t w = 0; w < nw; ++w)
                    per_wire[w] = lanes[l * nw + w].genuineScores[g];
                out.genuine.push_back(fuseScores(cfg.fusion, per_wire));
            }
        }
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
                    out.impostor.push_back(
                        fuseScores(cfg.fusion, per_wire));
                }
                ++pair_rank;
            }
        }
    }
    {
        auto span = tr.span("util.roc");
        out.eer = analyzeRoc(out.genuine, out.impostor).eer;
        out.dprime = decidabilityIndex(out.genuine, out.impostor);
        out.fittedEer = gaussianFitEer(out.genuine, out.impostor);
    }
    return out;
}

} // namespace

Outcome
runStudyOven(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const StudyConfig cfg = makeConfig(opt);
    const std::size_t meas = measurementsPerCampaign(cfg);
    const uint64_t seed = opt.seed;
    out.info["simd_target"] = simdTargetName(resolveSimdTarget(cfg.itdr.simd));
    out.info["strobe_engine"] = "sampled";

    // --- setup: time to the first result of a fresh study -------------
    // Line fabrication alone (the constructor) takes a fraction of a
    // millisecond and its cost differs between processes by a third on a
    // shared host, so set-up is timed as construction plus the study's
    // first campaign, which also carries first-touch and allocator
    // growth. The first of these campaigns gives the reference scores.
    std::vector<double> setups;
    std::unique_ptr<GenuineImpostorStudy> study;
    StudyResult first;
    uint64_t refDigest = 0;
    auto account = [&](const StudyResult &r) {
        const std::size_t scores = r.genuine.size() + r.impostor.size();
        out.attempted += scores;
        uint64_t bad = 0;
        for (const double s : r.genuine)
            bad += std::isfinite(s) ? 0 : 1;
        for (const double s : r.impostor)
            bad += std::isfinite(s) ? 0 : 1;
        // A repeated campaign must score identically.
        if (scoreDigest(r.genuine, r.impostor) != refDigest)
            bad = scores;
        out.failed += bad;
    };
    for (int k = 0; k < kSetups; ++k) {
        study.reset();
        const double t0 = now();
        study = std::make_unique<GenuineImpostorStudy>(cfg, Rng(seed));
        StudyResult r = study->run();
        setups.push_back(now() - t0);
        if (k == 0) {
            refDigest = scoreDigest(r.genuine, r.impostor);
            first = std::move(r);
            account(first);
        } else {
            account(r);
        }
    }

    // --- campaigns: whole run() calls, untraced -------------------------
    // The traced run spends part of its window here (reference scores
    // and the untraced wall the tracing overhead is measured against)
    // and the rest in the replica.
    const double window = opt.trace ? opt.seconds * 0.35 : opt.seconds;
    std::vector<double> walls;
    const double t_end = now() + window;
    do {
        const double t0 = now();
        const StudyResult r = study->run();
        walls.push_back(now() - t0);
        account(r);
    } while (now() < t_end || walls.size() < 2);

    const std::size_t expectScores = cfg.lines * cfg.genuinePerLine +
        cfg.lines * (cfg.lines - 1) * cfg.impostorPerPair;
    out.check(first.genuine.size() + first.impostor.size() == expectScores,
              "study returned the wrong number of scores");
    out.check(out.failed == 0,
              "study scores non-finite or not repeatable across campaigns");
    out.check(std::isfinite(first.decidability), "d' is not finite");
    const double lookups =
        static_cast<double>(first.cacheHits + first.cacheMisses);
    const double hitRatio = lookups > 0 ? first.cacheHits / lookups : 0.0;
    out.check(hitRatio < 0.5,
              "workload shape: oven campaign should mostly miss the "
              "trace cache");

    const double wall = median(walls);
    out.e2e("setup_s", median(setups), "s");
    out.e2e("throughput_per_s", static_cast<double>(meas) / wall, "1/s");
    out.e2e("latency_p50_ms", wall * 1e3, "ms");
    out.e2e("peak_rss_mib", peakRssMib(), "MiB");
    out.detail("meas_per_s", static_cast<double>(meas) / wall, "1/s");
    out.detail("campaign_ms", wall * 1e3, "ms");
    out.detail("campaigns", static_cast<double>(walls.size()), "count");
    out.detail("dprime", first.decidability, "1");
    out.detail("eer", first.roc.eer, "ratio");
    out.detail("fitted_eer", first.fittedEer, "ratio");
    out.detail("trace_cache_hit_ratio", hitRatio, "ratio");
    out.digests["scores"] = hex64(refDigest);

    if (!opt.trace)
        return out;

    // --- traced replica -------------------------------------------------
    Fabricated fab = fabricate(cfg, seed, tracer);
    Telemetry tm;
    std::vector<double> tracedWalls;
    ReplicaResult last;
    bool identical = true;
    const double r_end = now() + (opt.seconds - window);
    do {
        const double t0 = now();
        ReplicaResult r = replicaCampaign(cfg, fab, tracer, tm);
        tracedWalls.push_back(now() - t0);
        identical = identical &&
            std::memcmp(r.genuine.data(), first.genuine.data(),
                        sizeof(double) * first.genuine.size()) == 0 &&
            r.genuine.size() == first.genuine.size() &&
            r.impostor.size() == first.impostor.size() &&
            std::memcmp(r.impostor.data(), first.impostor.data(),
                        sizeof(double) * first.impostor.size()) == 0 &&
            r.eer == first.roc.eer && r.dprime == first.decidability &&
            r.fittedEer == first.fittedEer;
        last = std::move(r);
    } while (now() < r_end || tracedWalls.size() < 2);
    out.check(identical,
              "traced replica does not reproduce run() bit for bit");

    const auto sum = tracer.summarize();
    auto total = [&](const char *name) {
        const auto it = sum.find(name);
        return it == sum.end() ? 0.0 : it->second.total;
    };
    auto count = [&](const char *name) {
        const auto it = sum.find(name);
        return it == sum.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    const double campaigns = static_cast<double>(tracedWalls.size());
    const double tracedWall = median(tracedWalls);

    out.layer("txline.fabricate_s", total("txline.fabricate"), "s");
    out.layer("txline.snapshot_s", total("txline.snapshot"), "s");
    out.layer("txline.snapshot_calls", count("txline.snapshot"), "count");
    out.layer("itdr.measure_s", total("itdr.measure"), "s");
    out.layer("itdr.measure_calls", count("itdr.measure"), "count");
    const std::vector<double> m = tracer.durations("itdr.measure");
    out.layer("itdr.measure_p50_us", quantile(m, 0.5) * 1e6, "us");
    out.layer("itdr.measure_p99_us", quantile(m, 0.99) * 1e6, "us");
    const double lk = static_cast<double>(last.cacheHits + last.cacheMisses);
    out.layer("itdr.trace_cache_hit_ratio",
              lk > 0 ? last.cacheHits / lk : 0.0, "ratio");
    out.layer("itdr.trace_cache_hits", last.cacheHits * campaigns, "count");
    out.layer("itdr.trace_cache_misses", last.cacheMisses * campaigns,
              "count");
    out.layer("itdr.bus_cycles", last.busCycles * campaigns, "cycles");
    out.layer("itdr.engine_fallbacks",
              counterDelta({}, counterSnapshot(tm), ".engine.fallbacks"),
              "count");
    out.layer("itdr.kernel_target",
              kernelTargetCode(cfg.itdr.simd), "enum");
    out.layer("itdr.ideal_iip_s", total("itdr.ideal_iip"), "s");
    out.layer("fingerprint.extract_s", total("fingerprint.extract"), "s");
    out.layer("fingerprint.similarity_s", total("fingerprint.similarity"),
              "s");
    out.layer("fingerprint.fusion_s", total("fingerprint.fusion"), "s");
    out.layer("util.roc_s", total("util.roc"), "s");
    out.layer("itdr.construct_s", total("itdr.construct"), "s");

    // Pool: worker busy = Σ lane-task time; capacity = workers x the
    // parallelFor walls they ran in.
    const double busy = total("study.lane_task");
    const double capacity =
        total("util.pool_phase") * static_cast<double>(cfg.threads);
    out.layer("util.pool_efficiency", capacity > 0 ? busy / capacity : 0.0,
              "ratio");
    out.layer("util.pool_wait_s", capacity - busy, "s");

    // Leaf accounting: how much of the busy time (lane tasks on the
    // workers plus the campaign's serial section on the caller) the
    // named leaf calls explain, and the tracing overhead against the
    // untraced run() wall.
    double leafSelf = 0.0;
    for (const auto &[name, s] : sum) {
        if (s.leaf && name != "txline.fabricate")
            leafSelf += s.self;
    }
    const double serial = total("study.campaign") - total("util.pool_phase");
    out.layer("trace.leaf_coverage",
              (busy + serial) > 0 ? leafSelf / (busy + serial) : 0.0,
              "ratio");
    out.layer("trace.overhead_ratio", tracedWall / wall - 1.0, "ratio");
    out.layer("trace.traced_wall_ms", tracedWall * 1e3, "ms");
    out.layer("trace.untraced_wall_ms", wall * 1e3, "ms");
    out.layer("trace.units", campaigns, "count");
    return out;
}

} // namespace perfbench
