/**
 * @file
 * Workload `fleet-service`: FleetService over a store-backed
 * ChannelScheduler of 64 physical BusChannels (25 cm lines, quiet
 * environment, Binomial strobe engine with SIMD auto-dispatch,
 * RiskWeighted policy, 4 instruments, Barrier reactor). The
 * EnrollmentDb has 8 shards and a resident budget of a quarter of the
 * fleet's enrollment bytes, so every tick hydrates and evicts.
 *
 * Traffic is an open loop in virtual time generated from the seed:
 * per tick a heavy-tailed burst of Verifies on Zipf-skewed channels
 * (mean below the 4-probe capacity, bursts above it), a
 * QuarantineStatus read, periodic FleetSummary reads, a small share of
 * Enroll / Reenroll writes, and a few unknown names. Each tick's batch
 * is encoded as DIVQ frames and sent through submitStream.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hh"
#include "fleet/channel_scheduler.hh"
#include "itdr/kernels/kernels.hh"
#include "load.hh"
#include "service/fleet_service.hh"
#include "store/enrollment_db.hh"
#include "trace.hh"

namespace perfbench {

using namespace divot;
using service::RequestKind;
using service::ServiceRequest;

namespace {

constexpr int kSetups = 3;            //!< fleet builds timed for setup_s
constexpr std::size_t kInstruments = 4;
constexpr unsigned kShards = 8;
constexpr uint64_t kMaxDrainTicks = 64; //!< bound on the final drain
constexpr uint64_t kRateWindowTicks = 128; //!< throughput window

struct Scale
{
    std::size_t channels;
    double lineLength;
    uint64_t detTicks; //!< deterministic prefix (digests, vticks)
    uint64_t minTicks; //!< ticks run however fast the host is
};

Scale
scaleFor(const Options &opt)
{
    if (opt.tiny)
        return {8, 0.1, 24, 40};
    return {64, 0.25, 256, 400};
}

/** The system under test; members destroy service -> fleet -> db. */
struct Rig
{
    std::unique_ptr<store::EnrollmentDb> db;
    std::unique_ptr<ChannelScheduler> fleet;
    std::unique_ptr<service::FleetService> svc;
    double storeAttachSeconds = 0.0;
};

void
buildRig(Rig &rig, const Options &opt, const Scale &sc,
         const std::string &dir)
{
    rig.svc.reset(); // the service borrows the fleet, the fleet the db
    rig.fleet.reset();
    rig.db.reset();
    removeTree(dir);
    makeDirs(dir);

    FleetConfig fc;
    fc.instruments = kInstruments;
    fc.policy = SchedulerPolicy::RiskWeighted;
    fc.threads = opt.threads;
    fc.requestQueueDepth = 256;
    fc.requestChannelDepth = 16;
    rig.fleet = std::make_unique<ChannelScheduler>(fc, Rng(opt.seed));
    for (std::size_t c = 0; c < sc.channels; ++c) {
        BusChannelConfig bc;
        bc.lineLength = sc.lineLength;
        bc.itdr.strobeModel = StrobeModel::Binomial;
        bc.itdr.simd = SimdTarget::Auto;
        bc.name = "ch" + std::to_string(c);
        rig.fleet->addChannel(bc);
    }
    rig.fleet->calibrateAll();

    store::EnrollmentDbConfig dc;
    dc.directory = dir;
    dc.shards = kShards;
    rig.db = std::make_unique<store::EnrollmentDb>(dc);
    if (!rig.db->open())
        throw std::runtime_error("cannot open enrollment db in " + dir);
    rig.db->attachTelemetry(&rig.fleet->telemetry());
    std::size_t bytes = 0;
    for (std::size_t c = 0; c < sc.channels; ++c)
        bytes += rig.fleet->channel(c).enrollmentBytes();
    // attachStore persists every enrollment into the journal and the
    // shard overlays; the checkpoint lands them in shard images, so
    // hydration reads the store's image path from the first tick
    // instead of the in-memory overlays.
    const double t0 = now();
    rig.fleet->attachStore(rig.db.get(), bytes / 4);
    if (!rig.db->checkpoint())
        throw std::runtime_error("enrollment db checkpoint failed");
    rig.storeAttachSeconds = now() - t0;
    rig.svc = std::make_unique<service::FleetService>(*rig.fleet);
}

/** Seeded open-loop traffic, one batch per tick. */
class Traffic
{
  public:
    Traffic(uint64_t seed, std::size_t channels)
        : rng_(seed ^ 0x5E41CEULL), zipf_(channels, 1.1, rng_)
    {}

    /** Requests due at tick `t`; `ghost[i]` marks unknown names. */
    void batch(uint64_t t, std::vector<ServiceRequest> &out,
               std::vector<bool> &ghost)
    {
        out.clear();
        ghost.clear();
        auto add = [&](RequestKind kind, std::string channel, bool g) {
            out.push_back({nextId_++, kind, std::move(channel)});
            ghost.push_back(g);
        };
        // Pareto(alpha 1.5, x_m 0.8) burst: mean ~2 Verifies per tick
        // against 4 instruments, with a tail well above capacity.
        const double u = std::max(rng_.uniform(), 1e-12);
        const std::size_t verifies = std::min<std::size_t>(
            16, static_cast<std::size_t>(0.8 * std::pow(u, -1.0 / 1.5)));
        for (std::size_t k = 0; k < verifies; ++k)
            add(RequestKind::Verify, name(zipf_.pick(rng_)), false);
        add(RequestKind::QuarantineStatus, name(zipf_.pick(rng_)), false);
        if (t % 4 == 0)
            add(RequestKind::FleetSummary, "", false);
        // Writes on a fixed cadence (4% Enroll, 1% Reenroll of ticks),
        // so every seed writes the same share.
        if (t % 25 == 7)
            add(RequestKind::Enroll, name(zipf_.pick(rng_)), false);
        if (t % 100 == 51)
            add(RequestKind::Reenroll, name(zipf_.pick(rng_)), false);
        if (t % 8 == 3)
            add(RequestKind::Verify, "ghost" + std::to_string(t), true);
    }

  private:
    static std::string name(std::size_t c) { return "ch" + std::to_string(c); }

    Rng rng_;
    ZipfPicker zipf_;
    uint64_t nextId_ = 1;
};

} // namespace

Outcome
runFleetService(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const Scale sc = scaleFor(opt);
    const std::string dir = opt.workDir + "/fleet-service-db";
    out.info["store_fs"] = filesystemType(opt.workDir);
    out.info["simd_target"] = simdTargetName(resolveSimdTarget(SimdTarget::Auto));
    out.info["strobe_engine"] = "binomial";

    // --- setup: fleet build + calibrateAll + store attach ---------------
    Rig rig;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        const double t0 = now();
        buildRig(rig, opt, sc, dir);
        setups.push_back(now() - t0);
    }
    ChannelScheduler &fleet = *rig.fleet;
    service::FleetService &svc = *rig.svc;
    const double threshold = BusChannelConfig().auth.similarityThreshold;
    const auto before = counterSnapshot(fleet.telemetry());
    const double cyclesBefore = histogramSum(fleet.telemetry(), ".cycles");
    const FleetCacheStats cacheBefore = fleet.cacheStats();

    // --- request phase ---------------------------------------------------
    Traffic traffic(opt.seed, sc.channels);
    RequestLog log(threshold, sc.detTicks);
    std::vector<ServiceRequest> batch;
    std::vector<bool> ghost;
    std::vector<char> bytes;
    std::vector<double> tickMs;
    std::vector<double> submitUs;
    std::vector<double> pending;
    WindowedRate rate(kRateWindowTicks); // time inside the system's calls
    double peakResident = 0.0;
    uint64_t verdictDigest = kFnvBasis;
    const uint64_t rotation = (sc.channels + kInstruments - 1) / kInstruments;

    auto serveTick = [&]() {
        FleetRound round;
        {
            auto span = tracer.span("fleet.tick");
            const double t0 = now();
            round = svc.tick();
            tickMs.push_back((now() - t0) * 1e3);
        }
        std::vector<service::ServiceResponse> resp;
        {
            auto span = tracer.span("service.drain");
            resp = svc.drainResponses();
        }
        return std::make_pair(std::move(round), std::move(resp));
    };

    const double t_end = now() + opt.seconds;
    uint64_t t = 0;
    for (; t < sc.minTicks || now() < t_end; ++t) {
        traffic.batch(t, batch, ghost);
        const uint64_t vtick = fleet.ticks();
        const double t0 = now();
        for (std::size_t i = 0; i < batch.size(); ++i)
            log.sent(batch[i], vtick, t0, ghost[i]);
        bytes.clear();
        {
            auto span = tracer.span("service.codec_encode");
            for (const ServiceRequest &rq : batch)
                service::appendRequestFrame(bytes, rq);
        }
        service::StreamDecode dec;
        {
            auto span = tracer.span("service.submit");
            const double s0 = now();
            dec = svc.submitStream(bytes);
            submitUs.push_back((now() - s0) * 1e6);
        }
        out.check(dec.ok() && dec.frames == batch.size(),
                  "submitStream rejected a well-formed batch");
        auto [round, resp] = serveTick();
        const double t1 = now();
        rate.tick(resp.size(), t1 - t0);
        for (const service::ServiceResponse &r : resp)
            log.answer(r, t1, tracer);
        if (t < sc.detTicks) {
            verdictDigest = foldU64(verdictDigest, round.tick);
            verdictDigest = foldU64(verdictDigest, round.probes.size());
            verdictDigest =
                foldDouble(verdictDigest, round.fused.fusedSimilarity);
            verdictDigest = foldU64(verdictDigest,
                                    round.fused.busTrusted ? 1 : 0);
        }
        pending.push_back(static_cast<double>(svc.pendingRequests()));
        peakResident = std::max(
            peakResident, static_cast<double>(fleet.residentEnrollmentBytes()));
        if (opt.trace) {
            // Probe: the request codec's decode cost on the same bytes
            // submitStream just consumed.
            std::vector<ServiceRequest> decoded;
            auto span = tracer.span("service.codec_decode");
            service::decodeRequestStream(bytes, decoded);
        }
    }
    // Bounded drain: everything admitted must answer.
    for (uint64_t extra = 0;
         extra < kMaxDrainTicks && svc.pendingRequests() > 0; ++extra) {
        auto [round, resp] = serveTick();
        const double t1 = now();
        for (const service::ServiceResponse &r : resp)
            log.answer(r, t1, tracer);
    }
    const uint64_t ticks = t;

    out.attempted = log.submitted();
    out.failed = log.failed() + svc.pendingRequests();
    for (const std::string &e : log.errors())
        out.problems.push_back(e);
    out.check(svc.pendingRequests() == 0,
              "requests still pending after the bounded drain");
    out.check(log.unanswered() == 0, "a submitted request was never answered");

    // Workload-shape guards.
    const auto after = counterSnapshot(fleet.telemetry());
    const double fallbacks = counterDelta(before, after, ".engine.fallbacks");
    out.check(fallbacks == 0,
              "workload shape: Binomial engine fell back to Sampled");
    const FleetCacheStats cache = fleet.cacheStats();
    const double hits =
        static_cast<double>(cache.totals.hits - cacheBefore.totals.hits);
    const double misses =
        static_cast<double>(cache.totals.misses - cacheBefore.totals.misses);
    const double hitRatio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out.check(hitRatio > 0.5,
              "workload shape: fleet probes should mostly hit the trace "
              "cache");

    // Backlog growth: mean pending in the second half vs the first.
    const std::size_t half = pending.size() / 2;
    double firstHalf = 0.0;
    double secondHalf = 0.0;
    for (std::size_t i = 0; i < pending.size(); ++i)
        (i < half ? firstHalf : secondHalf) += pending[i];
    firstHalf /= std::max<std::size_t>(half, 1);
    secondHalf /= std::max<std::size_t>(pending.size() - half, 1);
    const bool growing = secondHalf > 2.0 * firstHalf + 4.0;

    const std::vector<double> &vms = log.verifyMs();
    out.e2e("setup_s", median(setups), "s");
    out.e2e("throughput_per_s", rate.median(), "1/s");
    out.e2e("latency_p50_ms", quantile(vms, 0.5), "ms");
    out.e2e("peak_rss_mib", peakRssMib(), "MiB");
    out.detail("requests_per_s", rate.median(), "1/s");
    out.detail("verify_p50_ms", quantile(vms, 0.5), "ms");
    out.detail("verify_p99_ms", quantile(vms, 0.99), "ms");
    out.detail("verify_samples", static_cast<double>(vms.size()), "count");
    out.detail("verify_p99_ticks", quantile(log.verifyTicks(), 0.99),
               "ticks");
    out.detail("verify_ticks_limit", 2.0, "ticks");
    out.detail("backlog_growing", growing ? 1.0 : 0.0, "flag");
    out.detail("failed_share",
               static_cast<double>(out.failed) /
                   static_cast<double>(std::max<uint64_t>(out.attempted, 1)),
               "ratio");
    out.detail("ticks", static_cast<double>(ticks), "count");
    out.detail("trace_cache_hit_ratio", hitRatio, "ratio");
    out.digests["responses"] = hex64(log.prefixDigest());
    out.digests["verdicts"] = hex64(verdictDigest);

    if (!opt.trace)
        return out;

    // --- per-layer metrics (traced run) ---------------------------------
    out.info["tick_split"] =
        "not traced: fleet.tick is one span; its reactor/hydrate/probe "
        "split needs an in-program profiler";
    const auto sum = tracer.summarize();
    auto total = [&](const char *name) {
        const auto it = sum.find(name);
        return it == sum.end() ? 0.0 : it->second.total;
    };
    auto delta = [&](const char *suffix) {
        return counterDelta(before, after, suffix);
    };
    const service::ServiceStats &st = svc.stats();
    out.layer("service.submit_s", total("service.submit"), "s");
    out.layer("service.submit_p99_us", quantile(submitUs, 0.99), "us");
    out.layer("service.codec_encode_s", total("service.codec_encode"), "s");
    out.layer("service.codec_decode_s", total("service.codec_decode"), "s");
    out.layer("service.drain_s", total("service.drain"), "s");
    out.layer("service.admitted", static_cast<double>(st.admitted), "count");
    out.layer("service.rejected_busy", static_cast<double>(st.rejectedBusy),
              "count");
    out.layer("service.rejected_unknown",
              static_cast<double>(st.rejectedUnknown), "count");
    out.layer("service.queue_peak",
              static_cast<double>(
                  fleet.telemetry().registry().gaugeValue("service.queue.peak")),
              "count");

    std::vector<double> cold(tickMs.begin(),
                             tickMs.begin() + std::min<std::size_t>(
                                                  rotation, tickMs.size()));
    std::vector<double> warm(tickMs.begin() + cold.size(), tickMs.end());
    out.layer("fleet.tick_s", total("fleet.tick"), "s");
    out.layer("fleet.tick_p50_ms", quantile(tickMs, 0.5), "ms");
    out.layer("fleet.tick_p99_ms", quantile(tickMs, 0.99), "ms");
    out.layer("fleet.tick_cold_p50_ms", quantile(cold, 0.5), "ms");
    out.layer("fleet.tick_warm_p50_ms", quantile(warm, 0.5), "ms");
    const double probes = delta("fleet.probes");
    out.layer("fleet.probes", probes, "count");
    out.layer("fleet.idle_slots", delta("fleet.slots.idle"), "count");
    out.layer("fleet.instrument_utilization", fleet.instrumentUtilization(),
              "ratio");
    out.layer("fleet.queue_peak", static_cast<double>(fleet.queuePeak()),
              "count");
    out.layer("fleet.peak_resident_mib", peakResident / 1048576.0, "MiB");

    out.layer("itdr.measure_calls", delta(".measurements"), "count");
    out.layer("itdr.trace_cache_hit_ratio", hitRatio, "ratio");
    out.layer("itdr.trace_cache_hits", hits, "count");
    out.layer("itdr.trace_cache_misses", misses, "count");
    out.layer("itdr.bus_cycles",
              histogramSum(fleet.telemetry(), ".cycles") - cyclesBefore,
              "cycles");
    out.layer("itdr.engine_fallbacks", fallbacks, "count");
    out.layer("itdr.kernel_target",
              kernelTargetCode(SimdTarget::Auto), "enum");

    const double hydrates = delta("store.hydrates");
    out.layer("store.enroll_s", rig.storeAttachSeconds, "s");
    out.layer("store.puts", delta("store.puts"), "count");
    out.layer("store.gets", delta("store.gets"), "count");
    out.layer("store.hydrates", hydrates, "count");
    out.layer("store.evictions", delta("store.evictions"), "count");
    out.layer("store.flushes", delta("store.shard.flushes"), "count");
    out.layer("store.checkpoints", delta("store.checkpoints"), "count");
    out.layer("store.journal_entries", delta("store.journal.entries"),
              "count");
    out.layer("store.probes_per_hydrate",
              hydrates > 0 ? probes / hydrates : 0.0, "ratio");

    const ShardViewProbe views =
        probeShardViews(*rig.db, fleet.reactorLaneCount(), tracer);
    out.layer("store.shard_view_cold_us", views.coldUs, "us");
    out.layer("store.shard_view_warm_us", views.warmUs, "us");
    out.layer("trace.units", static_cast<double>(ticks), "count");
    return out;
}

} // namespace perfbench
