/**
 * @file
 * PERF/ROBUSTNESS — fleet-scale persistence: enroll 10^5 channels
 * into the sharded EnrollmentDb and monitor them with bounded-memory
 * lazy hydration (each tick touches only its probe batch; every shard
 * file is read at most once per tick).
 *
 * Gates:
 *  1. capacity — the configured channel count enrolls durably and the
 *     peak resident enrollment footprint stays under the fixed budget;
 *  2. determinism — the fused-verdict digest of a 1-thread run equals
 *     the pooled run bit for bit, with and without an active storage
 *     FaultPlan;
 *  3. zero junk — under a campaign of torn writes, power cuts, bit
 *     rot, and shard truncation, every damaged record either recovers
 *     through a surviving bank or lands in PendingReenroll; no tick
 *     fuses a corrupted fingerprint into the bus verdict.
 *
 * Cross-PR tracking: --json appends a {"bench": "megafleet"} record
 * to BENCH_study_throughput.json (the committed perf trajectory;
 * label from DIVOT_BENCH_LABEL, else "local"); --gate compares
 * enroll/probe throughput against the last committed megafleet record
 * and fails below 85%.
 */

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fault/fault.hh"
#include "fleet/megafleet.hh"
#include "store/io.hh"
#include "util/rng.hh"

namespace divot {
namespace bench {
namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Start every run from an empty database directory. */
void
resetDir(const std::string &dir, unsigned shards)
{
    store::ensureDir(dir);
    for (unsigned s = 0; s < shards; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(dir + "/journal.wal");
}

struct RunResult
{
    MegaFleetReport report;
    double enrollSeconds = 0.0;
    double tickSeconds = 0.0;
    uint64_t cleanTicks = 0; //!< ticks whose bus verdict was trusted
    uint64_t junkTicks = 0;  //!< ticks authenticated below the bar or
                             //!< alarmed by an undamaged fleet
};

/** Outcome of a request-service run (the PR10 front-end leg). */
struct ServiceRun
{
    uint64_t digest = 0;       //!< chained response-frame digest
    uint64_t submitted = 0;    //!< requests submitted
    uint64_t responses = 0;    //!< responses emitted (incl. rejects)
    uint64_t busy = 0;         //!< Busy rejections observed
    uint64_t unknown = 0;      //!< Unknown rejections observed
    uint64_t junk = 0;         //!< responses violating the contract
    double seconds = 0.0;      //!< submit+tick+drain wall time
};

/**
 * Drive a deterministic mixed request stream through the MegaFleet
 * front end: per tick a burst of Verifies across the fleet, a
 * QuarantineStatus, a FleetSummary, a periodic Reenroll, an unknown
 * name, and one per-channel flood that must trip the Busy bound. The
 * stream is a pure function of `seed`, so a serial and a pooled run
 * serve byte-identical traffic and must emit bit-identical response
 * digests.
 *
 * A junk response is one that violates the payload contract: a Verify
 * answered Ok whose authenticated flag disagrees with its similarity
 * vs the accept bar, or an Ok Verify on a channel the store had
 * already fenced.
 */
ServiceRun
runService(const MegaFleetConfig &base, const std::string &dir,
           unsigned threads, unsigned lanes, uint64_t ticks,
           uint64_t seed, const FaultInjector *injector)
{
    MegaFleetConfig cfg = base;
    cfg.store.directory = dir;
    cfg.threads = threads;
    cfg.reactorLanes = lanes;
    resetDir(dir, cfg.store.shards);

    MegaFleet fleet(cfg, Rng(seed));
    if (injector != nullptr)
        fleet.attachFaultInjector(injector);
    fleet.enrollAll();

    ServiceRun r;
    uint64_t id = 1;
    Rng stream(seed ^ 0x5EF1CEULL);
    const auto checkDrained = [&](MegaFleet &f) {
        for (const service::ServiceResponse &resp :
             f.drainResponses()) {
            ++r.responses;
            if (resp.status == service::ResponseStatus::Busy)
                ++r.busy;
            if (resp.status == service::ResponseStatus::Unknown)
                ++r.unknown;
            if (resp.kind == service::RequestKind::Verify &&
                resp.status == service::ResponseStatus::Ok) {
                const bool flagged =
                    (resp.flags & service::kResponseAuthenticated)
                    != 0;
                const bool above =
                    resp.similarity >= cfg.similarityThreshold;
                if (flagged != above)
                    ++r.junk;
            }
        }
    };

    const double t0 = now();
    for (uint64_t t = 0; t < ticks; ++t) {
        service::ServiceRequest rq;
        for (int k = 0; k < 8; ++k) {
            rq.id = id++;
            rq.kind = service::RequestKind::Verify;
            rq.channel = MegaFleet::channelId(
                stream.uniformInt(cfg.channels));
            fleet.submit(rq);
        }
        rq.id = id++;
        rq.kind = service::RequestKind::QuarantineStatus;
        rq.channel =
            MegaFleet::channelId(stream.uniformInt(cfg.channels));
        fleet.submit(rq);
        rq.id = id++;
        rq.kind = service::RequestKind::FleetSummary;
        rq.channel.clear();
        fleet.submit(rq);
        if (t % 3 == 1) {
            rq.id = id++;
            rq.kind = service::RequestKind::Reenroll;
            rq.channel =
                MegaFleet::channelId(stream.uniformInt(cfg.channels));
            fleet.submit(rq);
        }
        rq.id = id++;
        rq.kind = service::RequestKind::Verify;
        rq.channel = "not-a-channel";
        fleet.submit(rq);
        if (t == 1) {
            // Per-channel flood: depth + 2 Verifies on one channel in
            // one burst — the overflow must reject Busy, never queue
            // unboundedly.
            for (std::size_t k = 0;
                 k < cfg.requestChannelDepth + 2; ++k) {
                rq.id = id++;
                rq.kind = service::RequestKind::Verify;
                rq.channel = MegaFleet::channelId(0);
                fleet.submit(rq);
            }
        }
        fleet.tick();
        checkDrained(fleet);
    }
    // Parked requests (verifies racing a fence, summaries) answer
    // within a bounded number of extra ticks; anything left after
    // that is a stuck request and counts as junk.
    for (int extra = 0; extra < 64 && fleet.pendingRequests() > 0;
         ++extra) {
        fleet.tick();
        checkDrained(fleet);
    }
    r.seconds = now() - t0;
    r.junk += fleet.pendingRequests();
    r.submitted = fleet.serviceStats().submitted;
    if (r.responses != r.submitted)
        ++r.junk; // every submit must answer exactly once
    r.digest = fleet.responseDigest();
    return r;
}

RunResult
runFleet(const MegaFleetConfig &base, const std::string &dir,
         unsigned threads, unsigned lanes, uint64_t ticks,
         uint64_t seed, const FaultInjector *injector)
{
    MegaFleetConfig cfg = base;
    cfg.store.directory = dir;
    cfg.threads = threads;
    cfg.reactorLanes = lanes;
    resetDir(dir, cfg.store.shards);

    MegaFleet fleet(cfg, Rng(seed));
    if (injector != nullptr)
        fleet.attachFaultInjector(injector);

    RunResult r;
    double t0 = now();
    fleet.enrollAll();
    r.enrollSeconds = now() - t0;

    t0 = now();
    for (uint64_t t = 0; t < ticks; ++t) {
        const MegaFleetVerdict v = fleet.tick();
        if (v.busTrusted)
            ++r.cleanTicks;
        // A corrupted fingerprint that slipped through the CRC banks
        // would crater the fused score (its residual decorrelates):
        // any contributing tick below the accept bar counts as junk.
        if (v.contributingWires > 0 && !v.busAuthenticated)
            ++r.junkTicks;
    }
    r.tickSeconds = now() - t0;
    r.report = fleet.report();
    return r;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

std::string
readWholeFile(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (f == nullptr)
        return {};
    std::string content;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, got);
    std::fclose(f);
    return content;
}

/** Append `record` to the top-level array in `path` (creating the
 *  file as a one-record array when absent or unparseable). */
void
appendRecord(const char *path, const std::string &record)
{
    const std::string existing = readWholeFile(path);
    std::string out;
    const std::size_t close = existing.find_last_of(']');
    if (close == std::string::npos) {
        out = "[\n" + record + "\n]\n";
    } else {
        std::size_t end = close;
        while (end > 0 &&
               std::isspace(static_cast<unsigned char>(
                   existing[end - 1])))
            --end;
        const bool empty_array = end > 0 && existing[end - 1] == '[';
        out = existing.substr(0, end) +
            (empty_array ? "\n" : ",\n") + record + "\n]\n";
    }
    std::FILE *f = std::fopen(path, "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("appended record to %s\n", path);
}

/**
 * Throughput fields of the last committed megafleet record with the
 * SAME run shape — scale and fleet composition — as this run. A raw
 * "last record" baseline silently compares a quick run against a
 * full one (or a 10^5 fleet against the 10^6 leg) as soon as both
 * live in the shared trajectory file; shape-matching keeps the 85%
 * bar meaningful.
 */
std::map<std::string, double>
lastMegafleetRates(const char *path, const char *scale,
                   const MegaFleetConfig &cfg)
{
    std::vector<std::string> shape = {
        "\"bench\": \"megafleet\"",
        std::string("\"scale\": \"") + scale + "\"",
        "\"channels\": " + std::to_string(cfg.channels) + ",",
        "\"shards\": " + std::to_string(cfg.store.shards) + ",",
        "\"probesPerTick\": " + std::to_string(cfg.probesPerTick) +
            ","};
    const std::string record =
        lastMatchingRecord(readWholeFile(path), shape);
    if (record.empty())
        return {};
    return recordRates(
        record, {"enrollPerSec", "probesPerSec", "requestsPerSec"});
}

} // namespace
} // namespace bench
} // namespace divot

int
main(int argc, char **argv)
{
    using namespace divot;
    using namespace divot::bench;

    const Options opt = parseOptions(argc, argv);

    MegaFleetConfig base;
    uint64_t ticks = 6;
    std::size_t campaignChannels = 20000;
    if (opt.million) {
        // The 10^6 capacity leg: fewer ticks (each tick probes 8192
        // wires), same bounded-memory contract.
        base.channels = 1000000;
        base.store.shards = 2048;
        base.probesPerTick = 8192;
        ticks = 2;
        base.residentBudgetBytes = 16u << 20;
    } else if (opt.full) {
        base.channels = 200000;
        base.store.shards = 512;
        base.probesPerTick = 4096;
        ticks = 10;
    } else if (opt.quick || opt.smoke) {
        base.channels = 20000;
        base.store.shards = 128;
        base.probesPerTick = 1024;
        ticks = 4;
        campaignChannels = 8000;
    } else {
        base.channels = 100000;
        base.store.shards = 512;
        base.probesPerTick = 4096;
    }
    base.fingerprintBins = 32;
    base.noiseSigma = 1e-4;
    base.similarityThreshold = 0.35;
    base.tamperThreshold = 1e-6;
    base.tamperWireVotes = 3;
    if (!opt.million)
        base.residentBudgetBytes = 8u << 20;
    base.store.overlayFlushRecords = 64;
    base.store.journalCheckpointBytes = 64u << 20;
    // The PR9 store path: decoded shard images served from the
    // byte-budgeted cache, journal fsyncs group-committed per
    // overlay-flush epoch. Both are pure mechanism — record values,
    // durability points, and the verdict digest are unchanged.
    base.store.shardCacheBytes = 96u << 20;
    base.store.journalGroupCommit = true;
    base.telemetry.enabled = false;

    const char *scale = opt.million ? "million"
        : opt.full                  ? "full"
        : (opt.quick || opt.smoke)  ? "quick"
                                    : "default";
    const unsigned lanesK = base.reactorLanes != 0
        ? base.reactorLanes
        : std::min(base.store.shards == 0 ? 1u : base.store.shards,
                   8u);

    std::printf("MegaFleet persistence bench: %zu channels, "
                "%u shards, %zu probes/tick, %llu ticks, "
                "%u reactor lanes, %.0f MiB shard cache\n",
                base.channels, base.store.shards, base.probesPerTick,
                static_cast<unsigned long long>(ticks), lanesK,
                base.store.shardCacheBytes / 1048576.0);

    const std::string root = "/tmp/divot_megafleet";
    store::ensureDir(root);

    // --- Clean capacity + determinism runs. The serial run pins one
    // lane; the pooled run lets the lane count resolve (min(shards,
    // 8)), so the digest equality below covers BOTH the thread-count
    // and the lane-partition invariance at once. ---------------------
    const RunResult serial =
        runFleet(base, root + "/clean-serial", 1, /*lanes=*/1, ticks,
                 opt.seed, nullptr);
    const RunResult pooled =
        runFleet(base, root + "/clean-pooled", 0, /*lanes=*/0, ticks,
                 opt.seed, nullptr);

    const double enrollPerSec =
        serial.report.enrolled /
        (serial.enrollSeconds > 0 ? serial.enrollSeconds : 1e-9);
    const double probesPerSec =
        serial.report.probes /
        (serial.tickSeconds > 0 ? serial.tickSeconds : 1e-9);

    std::printf("\nclean run (serial): enrolled %llu, "
                "%.0f enroll/s, %.0f probes/s, peak resident "
                "%.2f MiB (budget %.2f MiB)\n",
                static_cast<unsigned long long>(
                    serial.report.enrolled),
                enrollPerSec, probesPerSec,
                serial.report.peakResidentBytes / 1048576.0,
                base.residentBudgetBytes / 1048576.0);

    bool capacity_pass =
        serial.report.enrolled == base.channels &&
        serial.report.peakResidentBytes <= base.residentBudgetBytes &&
        serial.report.pendingReenroll == 0 &&
        serial.junkTicks == 0 &&
        serial.cleanTicks == ticks;
    bool determinism_pass =
        serial.report.verdictDigest == pooled.report.verdictDigest;
    std::printf("capacity gate: %s\n",
                capacity_pass ? "PASS" : "FAIL");
    std::printf("determinism gate (clean, 1 thread/1 lane vs N "
                "threads/%u lanes): %s (digest %016llx)\n",
                lanesK, determinism_pass ? "PASS" : "FAIL",
                static_cast<unsigned long long>(
                    serial.report.verdictDigest));

    // --- Storage fault campaign: torn write, power cuts at every
    // commit point, bit rot, shard truncation. -----------------------
    MegaFleetConfig campaign = base;
    campaign.channels = campaignChannels;
    FaultPlan plan;
    plan.storageTornWrite(campaignChannels / 8)
        .storageCrash(campaignChannels / 4,
                      StorageCrashPoint::AfterJournal)
        .storageCrash(campaignChannels / 3,
                      StorageCrashPoint::BeforeCommit)
        .storageBitRot(campaignChannels / 2, 1, 12.0)
        .storageTruncation((campaignChannels * 2) / 3, 0.55);
    const FaultInjector injector(plan, Rng(opt.seed ^ 0xFau));

    const RunResult faultSerial =
        runFleet(campaign, root + "/fault-serial", 1, /*lanes=*/1,
                 ticks, opt.seed, &injector);
    const RunResult faultPooled =
        runFleet(campaign, root + "/fault-pooled", 0, /*lanes=*/0,
                 ticks, opt.seed, &injector);

    std::printf("\nfault campaign (%zu channels): enrolled %llu, "
                "%llu crash recoveries, %llu pending-reenroll, "
                "junk ticks %llu\n",
                campaign.channels,
                static_cast<unsigned long long>(
                    faultSerial.report.enrolled),
                static_cast<unsigned long long>(
                    faultSerial.report.crashRecoveries),
                static_cast<unsigned long long>(
                    faultSerial.report.pendingReenroll),
                static_cast<unsigned long long>(
                    faultSerial.junkTicks));

    const bool fault_determinism_pass =
        faultSerial.report.verdictDigest ==
        faultPooled.report.verdictDigest;
    // Zero junk: damaged records must recover through a surviving
    // bank or drop out as PendingReenroll — never score as genuine-
    // looking garbage. Surviving wires keep the bus authenticated.
    const bool junk_pass = faultSerial.junkTicks == 0 &&
        faultPooled.junkTicks == 0;
    const bool recovery_pass =
        faultSerial.report.crashRecoveries >= 2 &&
        faultSerial.report.enrolled +
                faultSerial.report.pendingReenroll ==
            campaign.channels;
    std::printf("determinism gate (faulted, 1 thread/1 lane vs N "
                "threads/K lanes): %s (digest %016llx)\n",
                fault_determinism_pass ? "PASS" : "FAIL",
                static_cast<unsigned long long>(
                    faultSerial.report.verdictDigest));
    std::printf("zero-junk gate: %s\n", junk_pass ? "PASS" : "FAIL");
    std::printf("crash-recovery gate: %s\n",
                recovery_pass ? "PASS" : "FAIL");

    // --- Request-service leg: the same fleet driven through the
    // typed request front end (PR10). A deterministic mixed stream —
    // verifies, status snapshots, summaries, re-enrollments, unknown
    // names, one per-channel flood — must produce bit-identical
    // response digests serial vs pooled, clean AND under the fault
    // campaign, with zero junk responses and every admission bound
    // honored. ------------------------------------------------------
    MegaFleetConfig svcCfg = base;
    svcCfg.channels = campaignChannels;
    const uint64_t svcTicks = ticks + 2;
    const ServiceRun svcSerial =
        runService(svcCfg, root + "/svc-serial", 1, /*lanes=*/1,
                   svcTicks, opt.seed, nullptr);
    const ServiceRun svcPooled =
        runService(svcCfg, root + "/svc-pooled", 0, /*lanes=*/0,
                   svcTicks, opt.seed, nullptr);
    const ServiceRun svcFaultSerial =
        runService(svcCfg, root + "/svc-fault-serial", 1, /*lanes=*/1,
                   svcTicks, opt.seed, &injector);
    const ServiceRun svcFaultPooled =
        runService(svcCfg, root + "/svc-fault-pooled", 0, /*lanes=*/0,
                   svcTicks, opt.seed, &injector);

    const double requestsPerSec = svcSerial.responses /
        (svcSerial.seconds > 0 ? svcSerial.seconds : 1e-9);
    std::printf("\nrequest service (%zu channels): %llu requests, "
                "%llu responses (%llu busy, %llu unknown), "
                "%.0f requests/s\n",
                svcCfg.channels,
                static_cast<unsigned long long>(svcSerial.submitted),
                static_cast<unsigned long long>(svcSerial.responses),
                static_cast<unsigned long long>(svcSerial.busy),
                static_cast<unsigned long long>(svcSerial.unknown),
                requestsPerSec);

    const bool service_determinism_pass =
        svcSerial.digest == svcPooled.digest &&
        svcFaultSerial.digest == svcFaultPooled.digest;
    const bool service_junk_pass = svcSerial.junk == 0 &&
        svcPooled.junk == 0 && svcFaultSerial.junk == 0 &&
        svcFaultPooled.junk == 0;
    // The stream floods one channel past its depth and names a
    // channel the fleet never enrolled — both rejections must appear.
    const bool service_admission_pass =
        svcSerial.busy >= 2 && svcSerial.unknown >= svcTicks;
    std::printf("service determinism gate (digest serial == pooled, "
                "clean + faulted): %s (digest %016llx / %016llx)\n",
                service_determinism_pass ? "PASS" : "FAIL",
                static_cast<unsigned long long>(svcSerial.digest),
                static_cast<unsigned long long>(svcFaultSerial.digest));
    std::printf("service zero-junk gate: %s\n",
                service_junk_pass ? "PASS" : "FAIL");
    std::printf("service admission gate (busy >= 2, unknown >= "
                "%llu): %s\n",
                static_cast<unsigned long long>(svcTicks),
                service_admission_pass ? "PASS" : "FAIL");

    const char *record_path = "BENCH_study_throughput.json";

    bool gate_pass = true;
    if (opt.gate) {
        const std::map<std::string, double> last =
            lastMegafleetRates(record_path, scale, base);
        std::printf("\nperf gate (>= 85%% of last committed "
                    "megafleet record at scale=%s, %zu channels):\n",
                    scale, base.channels);
        if (last.empty()) {
            std::printf("  no committed megafleet record with this "
                        "shape; gate passes vacuously\n");
        } else {
            const struct
            {
                const char *key;
                double value;
            } rows[] = {{"enrollPerSec", enrollPerSec},
                        {"probesPerSec", probesPerSec},
                        {"requestsPerSec", requestsPerSec}};
            for (const auto &row : rows) {
                const auto it = last.find(row.key);
                if (it == last.end())
                    continue;
                const bool ok = row.value >= 0.85 * it->second;
                std::printf("  %-13s %10.0f vs %10.0f  %s\n",
                            row.key, row.value, it->second,
                            ok ? "ok" : "REGRESSED");
                gate_pass = gate_pass && ok;
            }
        }
    }

    if (opt.json) {
        const char *label = std::getenv("DIVOT_BENCH_LABEL");
        std::string r;
        appendf(r, "  {\n");
        appendf(r, "    \"label\": \"%s\",\n",
                label != nullptr && *label != '\0' ? label : "local");
        appendf(r, "    \"bench\": \"megafleet\",\n");
        appendf(r, "    \"seed\": %llu,\n",
                static_cast<unsigned long long>(opt.seed));
        appendf(r, "    \"scale\": \"%s\",\n", scale);
        appendf(r, "    \"channels\": %zu,\n", base.channels);
        appendf(r, "    \"shards\": %u,\n", base.store.shards);
        appendf(r, "    \"probesPerTick\": %zu,\n",
                base.probesPerTick);
        appendf(r, "    \"reactorLanes\": %u,\n", lanesK);
        appendf(r, "    \"shardCacheBytes\": %zu,\n",
                base.store.shardCacheBytes);
        appendf(r, "    \"journalGroupCommit\": %s,\n",
                base.store.journalGroupCommit ? "true" : "false");
        appendf(r, "    \"ticks\": %llu,\n",
                static_cast<unsigned long long>(ticks));
        appendf(r, "    \"enrollSeconds\": %.6f,\n",
                serial.enrollSeconds);
        appendf(r, "    \"enrollPerSec\": %.3f,\n", enrollPerSec);
        appendf(r, "    \"probesPerSec\": %.3f,\n", probesPerSec);
        appendf(r, "    \"peakResidentBytes\": %zu,\n",
                serial.report.peakResidentBytes);
        appendf(r, "    \"residentBudgetBytes\": %zu,\n",
                base.residentBudgetBytes);
        appendf(r, "    \"instruments\": %zu,\n", base.instruments);
        appendf(r, "    \"fleet.instrument.utilization\": %.4f,\n",
                serial.report.instrumentUtilization);
        appendf(r, "    \"verdictDigest\": \"%016llx\",\n",
                static_cast<unsigned long long>(
                    serial.report.verdictDigest));
        appendf(r, "    \"faultCrashRecoveries\": %llu,\n",
                static_cast<unsigned long long>(
                    faultSerial.report.crashRecoveries));
        appendf(r, "    \"faultPendingReenroll\": %llu,\n",
                static_cast<unsigned long long>(
                    faultSerial.report.pendingReenroll));
        appendf(r, "    \"requestsPerSec\": %.3f,\n", requestsPerSec);
        appendf(r, "    \"serviceRequests\": %llu,\n",
                static_cast<unsigned long long>(svcSerial.submitted));
        appendf(r, "    \"serviceDigest\": \"%016llx\",\n",
                static_cast<unsigned long long>(svcSerial.digest));
        appendf(r, "    \"servicePass\": %s,\n",
                service_determinism_pass && service_junk_pass &&
                        service_admission_pass
                    ? "true" : "false");
        appendf(r, "    \"capacityPass\": %s,\n",
                capacity_pass ? "true" : "false");
        appendf(r, "    \"determinismPass\": %s,\n",
                determinism_pass && fault_determinism_pass
                    ? "true" : "false");
        appendf(r, "    \"zeroJunkPass\": %s\n",
                junk_pass ? "true" : "false");
        appendf(r, "  }");
        appendRecord(record_path, r);
    }

    const bool pass = capacity_pass && determinism_pass &&
        fault_determinism_pass && junk_pass && recovery_pass &&
        service_determinism_pass && service_junk_pass &&
        service_admission_pass && gate_pass;
    std::printf("\n%s\n", pass ? "ALL GATES PASS" : "GATE FAILURE");
    return pass ? 0 : 1;
}
