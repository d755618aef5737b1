/**
 * @file
 * Workload `megafleet-100k`: MegaFleet with 100k synthetic channels
 * (512 shards, 4096 probes per tick, 96 MiB decoded-shard cache, group
 * commit, 8 MiB resident budget). One round opens the fleet and its
 * EnrollmentDb, enrolls every channel durably (100k puts plus a
 * checkpoint), then runs monitoring ticks that rotate through the
 * fleet more than once while a light request stream goes through
 * MegaFleet::submit. The first rotation is cold, later ones warm.
 * Rounds repeat on a fresh database until the window is used.
 *
 * No physics runs here: probes are synthetic (enrollment plus noise)
 * and are never reported as iTDR measurements.
 */

#include <algorithm>
#include <memory>
#include <string>

#include "common.hh"
#include "fleet/megafleet.hh"
#include "load.hh"
#include "trace.hh"

namespace perfbench {

using namespace divot;
using service::RequestKind;
using service::ServiceRequest;

namespace {

constexpr uint64_t kMaxDrainTicks = 64;
/** Hydration lanes MegaFleet resolves for reactorLanes = 0 at 512 (or
 *  32, tiny) shards: min(shards, 8). */
constexpr unsigned kLanes = 8;

struct Scale
{
    std::size_t channels;
    unsigned shards;
    std::size_t probesPerTick;
    uint64_t ticks; //!< monitoring ticks per round
};

Scale
scaleFor(const Options &opt)
{
    if (opt.tiny)
        return {4096, 32, 512, 20};
    // 25 ticks per rotation: one cold rotation, then five warm ones.
    return {100000, 512, 4096, 150};
}

MegaFleetConfig
makeConfig(const Options &opt, const Scale &sc, const std::string &dir)
{
    MegaFleetConfig cfg;
    cfg.channels = sc.channels;
    cfg.store.shards = sc.shards;
    cfg.probesPerTick = sc.probesPerTick;
    cfg.fingerprintBins = 32;
    cfg.noiseSigma = 1e-4;
    cfg.similarityThreshold = 0.35;
    cfg.tamperThreshold = 1e-6;
    cfg.tamperWireVotes = 3;
    cfg.residentBudgetBytes = 8u << 20;
    cfg.store.directory = dir;
    cfg.store.overlayFlushRecords = 64;
    cfg.store.journalCheckpointBytes = 64u << 20;
    cfg.store.shardCacheBytes = 96u << 20;
    cfg.store.journalGroupCommit = true;
    cfg.threads = opt.threads;
    return cfg;
}

/** Per-tick light request stream. */
void
requestsFor(uint64_t t, Rng &rng, std::size_t channels, uint64_t &nextId,
            std::vector<ServiceRequest> &out, std::vector<bool> &ghost)
{
    out.clear();
    ghost.clear();
    auto add = [&](RequestKind kind, std::string channel, bool g) {
        out.push_back({nextId++, kind, std::move(channel)});
        ghost.push_back(g);
    };
    for (int k = 0; k < 8; ++k)
        add(RequestKind::Verify,
            MegaFleet::channelId(rng.uniformInt(channels)), false);
    add(RequestKind::QuarantineStatus,
        MegaFleet::channelId(rng.uniformInt(channels)), false);
    if (t % 2 == 0)
        add(RequestKind::FleetSummary, "", false);
    if (t % 5 == 1)
        add(RequestKind::Reenroll,
            MegaFleet::channelId(rng.uniformInt(channels)), false);
    if (t % 4 == 3)
        add(RequestKind::Verify, "ghost" + std::to_string(t), true);
}

/** What one round measured. */
struct Round
{
    double openSeconds = 0.0;
    double enrollSeconds = 0.0;
    double tickSeconds = 0.0;
    std::vector<double> tickMs;
    uint64_t firstRotationHydrates = 0;
    uint64_t firstRotationDecodes = 0; //!< shard-cache loads (decodes)
    MegaFleetReport report;
    service::ServiceStats stats;
    uint64_t responseDigest = 0;
    uint64_t junkTicks = 0;
    std::size_t queuePeak = 0;
    std::map<std::string, uint64_t> counters;
    store::ShardCacheStats cache;
    /** Responses checked against requests; ids restart every round so
     *  every round serves byte-identical traffic. */
    RequestLog log{MegaFleetConfig().similarityThreshold, UINT64_MAX};
    ShardViewProbe views;
};

Round
runRound(const Options &opt, const Scale &sc, const MegaFleetConfig &cfg,
         WindowedRate &rate, Tracer &tr, Outcome &out, bool probeShards)
{
    Round r;
    RequestLog &log = r.log;
    removeTree(cfg.store.directory);
    makeDirs(cfg.store.directory);

    double t0 = now();
    std::unique_ptr<MegaFleet> mf;
    {
        auto span = tr.span("megafleet.open");
        mf = std::make_unique<MegaFleet>(cfg, Rng(opt.seed));
    }
    r.openSeconds = now() - t0;
    t0 = now();
    uint64_t enrolled = 0;
    {
        auto span = tr.span("megafleet.enroll_all");
        enrolled = mf->enrollAll();
    }
    r.enrollSeconds = now() - t0;
    out.check(enrolled == cfg.channels, "enrollAll missed channels");
    // enrollAll's checkpoint writes every decoded image through into the
    // shard cache; drop it (same lane partition) so the first rotation
    // decodes every shard cold, as after a restart.
    mf->db().setShardCacheLanes(kLanes);
    const store::ShardCacheStats atStart = mf->db().cacheStats();

    Rng stream(opt.seed ^ 0x5EF1CEULL);
    uint64_t nextId = 1;
    std::vector<ServiceRequest> batch;
    std::vector<bool> ghost;
    const uint64_t rotation =
        (cfg.channels + cfg.probesPerTick - 1) / cfg.probesPerTick;
    // One tick plus its drain; @return (end time, responses drained).
    auto serve = [&](uint64_t t) -> std::pair<double, std::size_t> {
        const double c0 = now();
        {
            auto span = tr.span("fleet.tick");
            const MegaFleetVerdict v = mf->tick();
            if (v.contributingWires > 0 && !v.busAuthenticated)
                ++r.junkTicks;
        }
        const double c1 = now();
        r.tickMs.push_back((c1 - c0) * 1e3);
        r.tickSeconds += c1 - c0;
        std::vector<service::ServiceResponse> resp;
        {
            auto span = tr.span("service.drain");
            resp = mf->drainResponses();
        }
        const double c2 = now();
        for (const service::ServiceResponse &x : resp)
            log.answer(x, c2, tr);
        if (t + 1 == rotation) {
            r.firstRotationHydrates = mf->report().hydrates;
            r.firstRotationDecodes =
                mf->db().cacheStats().misses - atStart.misses;
        }
        return {c2, resp.size()};
    };

    uint64_t t = 0;
    for (; t < sc.ticks; ++t) {
        requestsFor(t, stream, cfg.channels, nextId, batch, ghost);
        const uint64_t vtick = mf->report().ticks;
        const double c0 = now();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            log.sent(batch[i], vtick, c0, ghost[i]);
            auto span = tr.span("service.submit", batch[i].id);
            mf->submit(batch[i]);
        }
        r.queuePeak = std::max(r.queuePeak, mf->pendingRequests());
        const auto [end, responses] = serve(t);
        rate.tick(responses, end - c0);
    }
    for (uint64_t extra = 0;
         extra < kMaxDrainTicks && mf->pendingRequests() > 0; ++extra, ++t)
        serve(t);
    out.check(mf->pendingRequests() == 0,
              "requests still pending after the bounded drain");

    r.report = mf->report();
    r.stats = mf->serviceStats();
    r.responseDigest = mf->responseDigest();
    r.counters = counterSnapshot(mf->telemetry());
    r.cache = mf->db().cacheStats();
    if (probeShards)
        r.views = probeShardViews(mf->db(), kLanes, tr);
    {
        auto span = tr.span("megafleet.close");
        mf.reset();
    }
    removeTree(cfg.store.directory);
    return r;
}

} // namespace

Outcome
runMegafleet(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const Scale sc = scaleFor(opt);
    const MegaFleetConfig cfg =
        makeConfig(opt, sc, opt.workDir + "/megafleet-db");
    out.info["store_fs"] = filesystemType(opt.workDir);
    out.info["probe_kind"] = "synthetic";

    std::vector<Round> rounds;
    // Rotation-sized windows: every round's ticks split into whole
    // rotations, the first cold and the rest warm.
    WindowedRate rate((cfg.channels + cfg.probesPerTick - 1) /
                      cfg.probesPerTick);
    const double t_end = now() + opt.seconds;
    do {
        rounds.push_back(runRound(opt, sc, cfg, rate, tracer, out,
                                  opt.trace && rounds.empty()));
    } while (now() < t_end);

    // Every round replays identical inputs on a fresh database, so
    // every round must reach identical digests.
    const Round &first = rounds.front();
    const uint64_t rotation =
        (cfg.channels + cfg.probesPerTick - 1) / cfg.probesPerTick;
    for (const Round &r : rounds) {
        out.check(r.responseDigest == first.responseDigest &&
                      r.report.verdictDigest == first.report.verdictDigest,
                  "rounds on identical inputs answered differently");
        out.check(r.report.enrolled == cfg.channels &&
                      r.report.pendingReenroll == 0,
                  "not every channel enrolled durably");
        out.check(r.report.peakResidentBytes <= cfg.residentBudgetBytes,
                  "resident enrollment bytes exceeded the budget");
        out.check(r.junkTicks == 0, "a tick fused a junk verdict");
        out.check(r.firstRotationHydrates >= cfg.channels &&
                      r.firstRotationDecodes >= cfg.store.shards,
                  "workload shape: first rotation did not hydrate every "
                  "channel and decode every shard");
    }
    std::vector<double> vms, vticks;
    for (const Round &r : rounds) {
        out.attempted += r.log.submitted();
        out.failed += r.log.failed();
        for (const std::string &e : r.log.errors())
            out.problems.push_back(e);
        vms.insert(vms.end(), r.log.verifyMs().begin(),
                   r.log.verifyMs().end());
        vticks.insert(vticks.end(), r.log.verifyTicks().begin(),
                      r.log.verifyTicks().end());
    }

    std::vector<double> setups, opens, enrolls, probeRates;
    std::vector<double> cold, warm, ticksAll;
    for (const Round &r : rounds) {
        setups.push_back(r.openSeconds + r.enrollSeconds);
        opens.push_back(r.openSeconds);
        enrolls.push_back(r.enrollSeconds);
        probeRates.push_back(static_cast<double>(r.report.probes) /
                             r.tickSeconds);
        for (std::size_t i = 0; i < r.tickMs.size(); ++i) {
            (i < rotation ? cold : warm).push_back(r.tickMs[i]);
            ticksAll.push_back(r.tickMs[i]);
        }
    }
    out.e2e("setup_s", median(setups), "s");
    out.e2e("throughput_per_s", rate.median(), "1/s");
    out.e2e("latency_p50_ms", quantile(vms, 0.5), "ms");
    out.e2e("peak_rss_mib", peakRssMib(), "MiB");
    out.detail("open_s", median(opens), "s");
    out.detail("enroll_per_s",
               static_cast<double>(cfg.channels) / median(enrolls), "1/s");
    out.detail("synthetic_probes_per_s", median(probeRates), "1/s");
    out.detail("requests_per_s", rate.median(), "1/s");
    out.detail("verify_p50_ms", quantile(vms, 0.5), "ms");
    out.detail("verify_p99_ms", quantile(vms, 0.99), "ms");
    out.detail("verify_samples", static_cast<double>(vms.size()), "count");
    out.detail("verify_p99_ticks", quantile(vticks, 0.99),
               "ticks");
    out.detail("verify_ticks_limit", 2.0, "ticks");
    out.detail("failed_share",
               static_cast<double>(out.failed) /
                   static_cast<double>(std::max<uint64_t>(out.attempted, 1)),
               "ratio");
    out.detail("rounds", static_cast<double>(rounds.size()), "count");
    out.digests["responses"] = hex64(first.responseDigest);
    out.digests["verdicts"] = hex64(first.report.verdictDigest);

    if (!opt.trace)
        return out;

    out.info["tick_split"] =
        "not traced: enrollAll and tick are one span each; their "
        "journal/hydrate/probe split needs an in-program profiler";
    const auto sum = tracer.summarize();
    auto total = [&](const char *name) {
        const auto it = sum.find(name);
        return it == sum.end() ? 0.0 : it->second.total;
    };
    auto counter = [&](const char *name) {
        double v = 0.0;
        for (const Round &r : rounds) {
            const auto it = r.counters.find(name);
            v += it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
        }
        return v;
    };
    double probes = 0.0, hydrates = 0.0, peakResident = 0.0, util = 0.0;
    double hits = 0.0, misses = 0.0, evicts = 0.0, rejects = 0.0;
    std::size_t queuePeak = 0;
    double admitted = 0.0, busy = 0.0, unknown = 0.0;
    for (const Round &r : rounds) {
        admitted += static_cast<double>(r.stats.admitted);
        busy += static_cast<double>(r.stats.rejectedBusy);
        unknown += static_cast<double>(r.stats.rejectedUnknown);
        probes += static_cast<double>(r.report.probes);
        hydrates += static_cast<double>(r.report.hydrates);
        peakResident = std::max(peakResident,
                                static_cast<double>(r.report.peakResidentBytes));
        util = r.report.instrumentUtilization;
        hits += static_cast<double>(r.cache.hits);
        misses += static_cast<double>(r.cache.misses);
        evicts += static_cast<double>(r.cache.evictions);
        rejects += static_cast<double>(r.cache.rejections);
        queuePeak = std::max(queuePeak, r.queuePeak);
    }
    out.layer("service.submit_s", total("service.submit"), "s");
    out.layer("service.submit_p99_us",
              quantile(tracer.durations("service.submit"), 0.99) * 1e6, "us");
    out.layer("service.codec_encode_s", total("service.codec_encode"), "s");
    out.layer("service.codec_decode_s", total("service.codec_decode"), "s");
    out.layer("service.drain_s", total("service.drain"), "s");
    out.layer("service.admitted", admitted, "count");
    out.layer("service.rejected_busy", busy, "count");
    out.layer("service.rejected_unknown", unknown, "count");
    out.layer("service.queue_peak", static_cast<double>(queuePeak), "count");
    out.layer("fleet.tick_s", total("fleet.tick"), "s");
    out.layer("fleet.tick_p50_ms", quantile(ticksAll, 0.5), "ms");
    out.layer("fleet.tick_p99_ms", quantile(ticksAll, 0.99), "ms");
    out.layer("fleet.tick_cold_p50_ms", quantile(cold, 0.5), "ms");
    out.layer("fleet.tick_warm_p50_ms", quantile(warm, 0.5), "ms");
    out.layer("fleet.probes", probes, "count");
    out.layer("fleet.instrument_utilization", util, "ratio");
    out.layer("fleet.peak_resident_mib", peakResident / 1048576.0, "MiB");
    out.layer("store.enroll_s", total("megafleet.enroll_all"), "s");
    out.layer("store.open_s", total("megafleet.open"), "s");
    out.layer("store.puts", counter("store.puts"), "count");
    out.layer("store.gets", counter("store.gets"), "count");
    out.layer("store.hydrates", hydrates, "count");
    out.layer("store.flushes", counter("store.shard.flushes"), "count");
    out.layer("store.checkpoints", counter("store.checkpoints"), "count");
    out.layer("store.journal_entries", counter("store.journal.entries"),
              "count");
    out.layer("store.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    out.layer("store.cache_hits", hits, "count");
    out.layer("store.cache_misses", misses, "count");
    out.layer("store.cache_evictions", evicts, "count");
    out.layer("store.cache_rejects", rejects, "count");
    out.layer("store.probes_per_hydrate",
              hydrates > 0 ? probes / hydrates : 0.0, "ratio");
    out.layer("store.shard_view_cold_us", first.views.coldUs, "us");
    out.layer("store.shard_view_warm_us", first.views.warmUs, "us");
    out.layer("trace.units", static_cast<double>(rounds.size()), "count");
    return out;
}

} // namespace perfbench
