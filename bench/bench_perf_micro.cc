/**
 * @file
 * PERF — google-benchmark microbenchmarks of the simulator's hot
 * paths: lattice and Born reflection rendering, a full iTDR
 * measurement, the PDM reference and the block Gaussian draw behind
 * sampled strobes, fingerprint similarity, the APC inverse table, ROC
 * analysis, the enrollment store's point-lookup read path, and the
 * thread pool's parallelFor fan-out. These bound how fast the
 * paper-scale experiments can run and quantify the Born-vs-lattice
 * ablation speed side.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "analog/comparator.hh"
#include "fingerprint/fingerprint.hh"
#include "itdr/apc.hh"
#include "itdr/itdr.hh"
#include "itdr/kernels/kernels.hh"
#include "itdr/pdm.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "telemetry/telemetry.hh"
#include "txline/born.hh"
#include "txline/lattice.hh"
#include "txline/manufacturing.hh"
#include "util/roc.hh"
#include "util/thread_pool.hh"

namespace divot {
namespace {

TransmissionLine
benchLine(double length = 0.25)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(7));
    auto z = fab.drawImpedanceProfile(length, 0.5e-3);
    return TransmissionLine(std::move(z), 0.5e-3, params.velocity,
                            50.0, 50.3, params.lossNeperPerMeter,
                            "bench");
}

void
BM_LatticeProbe(benchmark::State &state)
{
    const auto line = benchLine(
        static_cast<double>(state.range(0)) / 100.0);
    LatticeSimulator sim(line);
    const EdgeShape edge(0.8, 25e-12);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.probe(edge).reflection);
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LatticeProbe)->Arg(10)->Arg(25)->Arg(50)->Complexity();

void
BM_BornProbe(benchmark::State &state)
{
    const auto line = benchLine(
        static_cast<double>(state.range(0)) / 100.0);
    BornTdrModel born(line);
    const EdgeShape edge(0.8, 25e-12);
    for (auto _ : state)
        benchmark::DoNotOptimize(born.probe(edge));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BornProbe)->Arg(10)->Arg(25)->Arg(50)->Complexity();

void
BM_ItdrMeasure(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = static_cast<unsigned>(state.range(0));
    ITdr itdr(cfg, Rng(11));
    for (auto _ : state)
        benchmark::DoNotOptimize(itdr.measure(line));
}
BENCHMARK(BM_ItdrMeasure)->Arg(17)->Arg(170);

// Telemetry overhead on the hottest call. telemetry:0 is the
// detached baseline, telemetry:1 attaches a disabled Telemetry (the
// handles stay inert — the acceptance bar is ~0% over detached) and
// telemetry:2 attaches an enabled one (bar: < 3% over detached).
void
BM_ItdrMeasureTelemetry(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = 170;
    ITdr itdr(cfg, Rng(11));
    TelemetryConfig tc;
    tc.enabled = state.range(0) == 2;
    Telemetry telemetry(tc);
    if (state.range(0) != 0)
        itdr.attachTelemetry(&telemetry, "itdr.bench");
    for (auto _ : state)
        benchmark::DoNotOptimize(itdr.measure(line));
}
BENCHMARK(BM_ItdrMeasureTelemetry)
    ->ArgNames({"telemetry"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// The perf-engine matrix: batched strobes on/off crossed with the
// reflection-trace cache on/off. {0,0} is the pre-optimization
// baseline; {1,8} is the default configuration.
void
BM_ItdrMeasureEngine(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = 170;
    cfg.batchedStrobes = state.range(0) != 0;
    cfg.traceCacheCapacity = static_cast<std::size_t>(state.range(1));
    ITdr itdr(cfg, Rng(11));
    for (auto _ : state)
        benchmark::DoNotOptimize(itdr.measure(line));
}
BENCHMARK(BM_ItdrMeasureEngine)
    ->ArgNames({"batch", "cache"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 8})
    ->Args({1, 8});

// The analytic strobe engine against the sampled batch engine at the
// default trials/levels configuration — the headline O(levels) vs
// O(trials) comparison. Compare model:1 against
// BM_ItdrMeasureEngine/batch:1 at the same cache setting; the
// acceptance bar is >= 10x at cache:8.
void
BM_ItdrMeasureStrobeModel(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = 170;
    cfg.strobeModel = state.range(0) != 0 ? StrobeModel::Binomial
                                          : StrobeModel::Sampled;
    cfg.traceCacheCapacity = static_cast<std::size_t>(state.range(1));
    ITdr itdr(cfg, Rng(11));
    for (auto _ : state)
        benchmark::DoNotOptimize(itdr.measure(line));
}
BENCHMARK(BM_ItdrMeasureStrobeModel)
    ->ArgNames({"model", "cache"})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({1, 0});

// What a new instrument pays before its first IIP: construction plus
// the first measure(), which freezes the bin grid and acquires the
// reconstruction plan (DESIGN.md §8). resident:1 keeps an instrument
// of the same configuration alive, so the plan is shared; resident:0
// gives every iteration a reconstruction sigma never seen before in
// the process, so the plan is built from scratch.
void
BM_ItdrFirstMeasure(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = 170;
    cfg.strobeModel = state.range(0) != 0 ? StrobeModel::Binomial
                                          : StrobeModel::Sampled;
    const bool resident = state.range(1) != 0;
    const double sigma = cfg.comparator.noiseSigma;
    cfg.assumedNoiseSigma = sigma;
    ITdr holder(cfg, Rng(7));
    holder.measure(line);
    // Process-wide, so repeated runs of this benchmark never reuse a
    // sigma either.
    static uint64_t cold_keys = 0;
    for (auto _ : state) {
        if (!resident) {
            cfg.assumedNoiseSigma =
                sigma * (1.0 + 1e-9 * static_cast<double>(++cold_keys));
        }
        ITdr itdr(cfg, Rng(11));
        benchmark::DoNotOptimize(itdr.measure(line));
    }
}
BENCHMARK(BM_ItdrFirstMeasure)
    ->ArgNames({"model", "resident"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

SimdTarget
benchSimdArg(long arg)
{
    switch (arg) {
      case 1: return SimdTarget::Avx2;
      case 2: return SimdTarget::Neon;
      default: return SimdTarget::Scalar;
    }
}

// The analytic measurement per dispatch target — the headline SIMD
// number. Compare simd:1 (or simd:2 on aarch64) against simd:0; the
// acceptance bar is >= 3x with AVX2. Unsupported targets skip rather
// than silently benchmark the scalar fallback.
void
BM_ItdrMeasureSimd(benchmark::State &state)
{
    const SimdTarget target = benchSimdArg(state.range(0));
    if (!simdTargetSupported(target)) {
        state.SkipWithError("simd target not supported on this host");
        return;
    }
    const auto line = benchLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = 170;
    cfg.strobeModel = StrobeModel::Binomial;
    cfg.simd = target;
    ITdr itdr(cfg, Rng(11));
    for (auto _ : state)
        benchmark::DoNotOptimize(itdr.measure(line));
}
BENCHMARK(BM_ItdrMeasureSimd)
    ->ArgNames({"simd"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// The batched Phi kernel alone, at the instrument's real grid shape
// (340 bins x 17 levels): probabilities per second per target.
void
BM_KernelApcProbability(benchmark::State &state)
{
    const SimdTarget target = benchSimdArg(state.range(0));
    if (!simdTargetSupported(target)) {
        state.SkipWithError("simd target not supported on this host");
        return;
    }
    const StrobeKernels &k = strobeKernels(target);
    const std::size_t bins = 340, levels = 17;
    Rng rng(3);
    std::vector<double> v_sig(bins), ref(bins * levels),
        p(bins * levels);
    for (std::size_t i = 0; i < bins; ++i) {
        v_sig[i] = rng.uniform(-4e-3, 4e-3);
        for (std::size_t j = 0; j < levels; ++j)
            ref[i * levels + j] =
                -8e-3 + 1e-3 * static_cast<double>(j);
    }
    for (auto _ : state) {
        k.apcProbabilityGrid(v_sig.data(), 0.0, 1.0 / 0.5e-3,
                             ref.data(), p.data(), bins, levels);
        benchmark::DoNotOptimize(p.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * bins * levels));
}
BENCHMARK(BM_KernelApcProbability)
    ->ArgNames({"simd"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

// The per-lane binomial kernel alone, on a realistic probability mix
// (mostly saturated lanes, an interior transition band): draws per
// second per target. Bit-identical output across targets by contract.
void
BM_KernelBinomialLane(benchmark::State &state)
{
    const SimdTarget target = benchSimdArg(state.range(0));
    if (!simdTargetSupported(target)) {
        state.SkipWithError("simd target not supported on this host");
        return;
    }
    const StrobeKernels &k = strobeKernels(target);
    const std::size_t bins = 340, levels = 17;
    Rng grid_rng(3);
    std::vector<double> v_sig(bins), ref(bins * levels),
        p(bins * levels);
    for (std::size_t i = 0; i < bins; ++i) {
        v_sig[i] = grid_rng.uniform(-4e-3, 4e-3);
        for (std::size_t j = 0; j < levels; ++j)
            ref[i * levels + j] =
                -8e-3 + 1e-3 * static_cast<double>(j);
    }
    scalarStrobeKernels()->apcProbabilityGrid(
        v_sig.data(), 0.0, 1.0 / 0.5e-3, ref.data(), p.data(), bins,
        levels);
    Rng rng(29);
    std::vector<unsigned> kk(bins * levels);
    for (auto _ : state) {
        k.binomialLane(rng, p.data(), 10, kk.data(), kk.size());
        benchmark::DoNotOptimize(kk.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kk.size()));
}
BENCHMARK(BM_KernelBinomialLane)
    ->ArgNames({"simd"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void
BM_ComparatorStrobeAnalytic(benchmark::State &state)
{
    // One bin's worth of APC work: 17 Vernier levels x n/17 trials
    // each, drawn as 17 binomials instead of n Gaussians (contrast
    // with BM_ComparatorStrobeBatch at the same n).
    Comparator cmp(ComparatorParams{}, Rng(21));
    const unsigned levels = 17;
    const unsigned per_level =
        static_cast<unsigned>(state.range(0)) / levels;
    std::vector<double> refs(levels);
    for (std::size_t i = 0; i < refs.size(); ++i)
        refs[i] = (static_cast<double>(i) - 8.0) * 1e-3;
    for (auto _ : state)
        benchmark::DoNotOptimize(cmp.strobeAnalytic(
            1e-3, refs.data(), refs.size(), per_level));
}
BENCHMARK(BM_ComparatorStrobeAnalytic)->Arg(170)->Arg(1700);

void
BM_RngBinomial(benchmark::State &state)
{
    // Both sides of the inversion/normal-cutoff seam.
    Rng rng(23);
    const uint64_t n = static_cast<uint64_t>(state.range(0));
    double p = 0.02;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.binomial(n, p));
        p += 0.013;
        if (p >= 0.99)
            p = 0.02;
    }
}
BENCHMARK(BM_RngBinomial)->Arg(10)->Arg(64)->Arg(65)->Arg(1000);

void
BM_ComparatorStrobeScalar(benchmark::State &state)
{
    Comparator cmp(ComparatorParams{}, Rng(21));
    std::vector<double> refs(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < refs.size(); ++i)
        refs[i] = (static_cast<double>(i % 17) - 8.0) * 1e-3;
    for (auto _ : state) {
        unsigned hits = 0;
        for (double r : refs)
            hits += cmp.strobe(1e-3, r);
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_ComparatorStrobeScalar)->Arg(170)->Arg(1700);

// One bin's PDM reference period per iteration, as the sampled batch
// engine evaluates it: `levels` triangle values at consecutive clock
// cycles of the bin, bins stepping by trials cycles and wrapping each
// measurement. The argument is how many 340-bin measurements the
// instrument made before: absolute times grow with it, to t * f_m ~
// 7e6 after the ~120 measurements of one study lane, so a phase
// reduction whose cost depends on the quotient (as glibc fmod's
// does) shows here.
void
BM_PdmReferenceAt(benchmark::State &state)
{
    const ItdrConfig cfg;
    const PdmSchedule pdm(cfg.pdm, cfg.pll.clockFrequency);
    const unsigned bins = 340;
    const unsigned levels = pdm.levelCount();
    const uint64_t trials = cfg.trialsPerPhase;
    const double t_clk = 1.0 / cfg.pll.clockFrequency;
    const uint64_t start =
        static_cast<uint64_t>(state.range(0)) * bins * trials;
    unsigned m = 0;
    for (auto _ : state) {
        const double t0 = static_cast<double>(m) * cfg.pll.phaseStep;
        const uint64_t cycle0 = start + m * trials;
        for (unsigned j = 0; j < levels; ++j) {
            benchmark::DoNotOptimize(pdm.referenceAt(
                static_cast<double>(cycle0 + j) * t_clk + t0));
        }
        m = m + 1 == bins ? 0 : m + 1;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * levels));
}
BENCHMARK(BM_PdmReferenceAt)
    ->ArgNames({"measurement"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(120);

// One bin's noise pairs: the polar rejection loops of n pairs in one
// call, as Comparator::strobeBatch draws them (85 pairs: a 170-trial
// bin).
void
BM_RngPolarPairs(benchmark::State &state)
{
    Rng rng(29);
    std::vector<double> uv(2 * static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        rng.polarPairs(uv.data(), uv.size() / 2);
        benchmark::DoNotOptimize(uv.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * uv.size()));
}
BENCHMARK(BM_RngPolarPairs)->Arg(85);

// One bin of Sampled strobes on one kernel target (0 scalar, 1 avx2):
// draw the pairs, count the hits.
void
BM_ComparatorStrobeBatch(benchmark::State &state)
{
    const SimdTarget target =
        state.range(1) != 0 ? SimdTarget::Avx2 : SimdTarget::Scalar;
    if (!simdTargetSupported(target)) {
        state.SkipWithError("target not supported on this machine");
        return;
    }
    const StrobeKernels &kernels = target == SimdTarget::Avx2
        ? *avx2StrobeKernels()
        : *scalarStrobeKernels();
    Comparator cmp(ComparatorParams{}, Rng(21));
    std::vector<double> refs(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < refs.size(); ++i)
        refs[i] = (static_cast<double>(i % 17) - 8.0) * 1e-3;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cmp.strobeBatch(1e-3, refs.data(), refs.size(), kernels));
}
BENCHMARK(BM_ComparatorStrobeBatch)
    ->ArgNames({"n", "avx2"})
    ->ArgsProduct({{170, 1700}, {0, 1}});

/** One parallelFor fan-out of n bodies on a pool of `threads`; each
 *  body busy-waits `body_us` microseconds (0: a single store). Wall
 *  time, since the caller may sleep while helpers work. */
void
BM_ThreadPoolParallelFor(benchmark::State &state)
{
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    std::vector<double> out(static_cast<std::size_t>(state.range(1)));
    const std::chrono::microseconds busy(state.range(2));
    for (auto _ : state) {
        pool.parallelFor(out.size(), [&](std::size_t i) {
            double v = static_cast<double>(i) * 1.5;
            if (busy.count() > 0) {
                const auto until = std::chrono::steady_clock::now() + busy;
                while (std::chrono::steady_clock::now() < until)
                    v += 1.0;
            }
            out[i] = v;
        });
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ThreadPoolParallelFor)
    ->ArgNames({"threads", "n", "body_us"})
    ->ArgsProduct({{1, 4}, {4, 8, 4096}, {0}})
    ->Args({4, 4, 50})
    ->Args({4, 8, 50})
    ->UseRealTime();

void
BM_Similarity(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    ITdr itdr(cfg, Rng(13));
    const Waveform empty;
    const Fingerprint a =
        Fingerprint::fromMeasurement(itdr.measure(line), empty);
    const Fingerprint b =
        Fingerprint::fromMeasurement(itdr.measure(line), empty);
    for (auto _ : state)
        benchmark::DoNotOptimize(similarity(a, b));
}
BENCHMARK(BM_Similarity);

void
BM_ErrorFunction(benchmark::State &state)
{
    const auto line = benchLine();
    ItdrConfig cfg;
    ITdr itdr(cfg, Rng(17));
    const Waveform empty;
    const Fingerprint a =
        Fingerprint::fromMeasurement(itdr.measure(line), empty);
    const Fingerprint b =
        Fingerprint::fromMeasurement(itdr.measure(line), empty);
    for (auto _ : state)
        benchmark::DoNotOptimize(errorFunction(a, b));
}
BENCHMARK(BM_ErrorFunction);

void
BM_ApcInverseTableBuild(benchmark::State &state)
{
    std::vector<double> levels;
    for (int i = 0; i < 17; ++i)
        levels.push_back((i - 8) * 1e-3);
    for (auto _ : state)
        benchmark::DoNotOptimize(ApcInverseTable(levels, 0.5e-3));
}
BENCHMARK(BM_ApcInverseTableBuild);

void
BM_ApcInverseTableLookup(benchmark::State &state)
{
    std::vector<double> levels;
    for (int i = 0; i < 17; ++i)
        levels.push_back((i - 8) * 1e-3);
    const ApcInverseTable table(levels, 0.5e-3);
    double p = 0.001;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.reconstruct(p));
        p += 0.001;
        if (p >= 0.999)
            p = 0.001;
    }
}
BENCHMARK(BM_ApcInverseTableLookup);

void
BM_RocAnalysis(benchmark::State &state)
{
    Rng rng(19);
    std::vector<double> genuine, impostor;
    for (long i = 0; i < state.range(0); ++i) {
        genuine.push_back(rng.gaussian(0.8, 0.05));
        impostor.push_back(rng.gaussian(0.1, 0.05));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(analyzeRoc(genuine, impostor));
}
BENCHMARK(BM_RocAnalysis)->Arg(1024)->Arg(8192);

// --------------------------------------------------------------------
// Store read path. A store-backed probe without a shard cache pays one
// shard-image read, a frame scan and the decode of one record. Records
// are physical size: three 340-sample waveforms each, so eight make a
// ~130 KB shard image, the size of a shard of 25 cm lines in a
// 64-channel, 8-shard fleet.

constexpr std::size_t kPhysicalSamples = 340;
constexpr int kRecordsPerShard = 8;

std::map<std::string, store::EnrollmentRecord>
physicalShard()
{
    Rng rng(23);
    const auto wave = [&rng] {
        std::vector<double> samples(kPhysicalSamples);
        for (double &x : samples)
            x = rng.gaussian(0.0, 1e-3);
        return Waveform(1e-12, std::move(samples));
    };
    std::map<std::string, store::EnrollmentRecord> records;
    for (int i = 0; i < kRecordsPerShard; ++i) {
        store::EnrollmentRecord rec;
        rec.id = "bench" + std::to_string(i);
        Waveform raw = wave();
        Waveform residual = wave();
        rec.fp = Fingerprint::fromParts(std::move(raw),
                                        std::move(residual), rec.id);
        rec.nominal = wave();
        rec.generation = 1;
        records[rec.id] = std::move(rec);
    }
    return records;
}

/** An empty directory under the system temp dir. */
std::string
freshTempDir(const char *name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        (std::string(name) + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    return dir.string();
}

void
BM_StoreReadFile(benchmark::State &state)
{
    const std::string dir = freshTempDir("divot_bm_readfile");
    const std::string path = dir + "/image.bin";
    const std::size_t size = static_cast<std::size_t>(state.range(0));
    if (!store::atomicWriteFile(path, std::vector<char>(size, 'x'))) {
        state.SkipWithError("cannot write the input file");
        return;
    }
    for (auto _ : state) {
        // A fresh buffer per read, as every store reader has.
        std::vector<char> bytes;
        if (!store::readFile(path, bytes)) {
            state.SkipWithError("read failed");
            break;
        }
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreReadFile)->Arg(8 << 10)->Arg(128 << 10)->Arg(1 << 20);

void
BM_StoreFindShardRecord(benchmark::State &state)
{
    const auto records = physicalShard();
    const std::vector<char> image = store::buildShardImage(records);
    std::vector<std::string> ids;
    for (const auto &[id, rec] : records)
        ids.push_back(id);
    std::size_t next = 0;
    for (auto _ : state) {
        store::EnrollmentRecord out;
        if (store::findShardRecord(image, ids[next], out) != 1) {
            state.SkipWithError("lookup missed");
            break;
        }
        benchmark::DoNotOptimize(out.fp.raw().samples().data());
        next = (next + 1) % ids.size();
    }
    state.counters["image_bytes"] = static_cast<double>(image.size());
}
BENCHMARK(BM_StoreFindShardRecord);

void
BM_StoreDbGet(benchmark::State &state)
{
    const auto records = physicalShard();
    store::EnrollmentDbConfig cfg;
    cfg.directory = freshTempDir("divot_bm_dbget");
    cfg.shards = 1;
    cfg.shardCacheBytes = 0; // every get reads and scans the image
    {
        store::EnrollmentDb db(cfg);
        bool written = db.open();
        for (const auto &[id, rec] : records)
            written = written && db.put(rec);
        if (!written || !db.checkpoint()) {
            state.SkipWithError("cannot write the shard image");
            std::filesystem::remove_all(cfg.directory);
            return;
        }
        std::vector<std::string> ids;
        for (const auto &[id, rec] : records)
            ids.push_back(id);
        std::size_t next = 0;
        for (auto _ : state) {
            store::EnrollmentRecord out;
            if (db.get(ids[next], out) != store::DbGetStatus::Ok) {
                state.SkipWithError("get missed");
                break;
            }
            benchmark::DoNotOptimize(out.fp.raw().samples().data());
            next = (next + 1) % ids.size();
        }
        state.counters["image_bytes"] =
            static_cast<double>(store::fileSize(db.shardPath(0)));
    }
    std::filesystem::remove_all(cfg.directory);
}
BENCHMARK(BM_StoreDbGet);

void
BM_StoreParseShardImage(benchmark::State &state)
{
    const std::vector<char> image =
        store::buildShardImage(physicalShard());
    for (auto _ : state) {
        std::map<std::string, store::EnrollmentRecord> out;
        benchmark::DoNotOptimize(store::parseShardImage(image, out).ok);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_StoreParseShardImage);

} // namespace
} // namespace divot

BENCHMARK_MAIN();
