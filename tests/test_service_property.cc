/**
 * @file
 * Request-interleaving property tests: every generated case drives a
 * seeded request schedule (mixed kinds, duplicate targets, unknown
 * names) through a FleetService while the underlying fleet runs its
 * own lifecycle — both scheduling policies, instrument fault plans,
 * store backing with an eviction-churning budget, and storage fault
 * plans all appear across the case family. Invariants per case:
 *
 *  - completeness: every submitted request answers exactly once;
 *  - determinism: a 1-thread and a pooled run of the same case emit
 *    bit-identical response digests AND byte-identical telemetry
 *    exports;
 *  - no junk: an Ok Verify's authenticated flag matches its
 *    similarity against the fleet's accept bar, and fenced wires
 *    never answer Ok.
 *
 * Case count scales with DIVOT_PROPERTY_CASES (default 64).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "property_harness.hh"
#include "service/fleet_service.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"

namespace divot {
namespace {

using property::PropertyCase;
using property::RequestStep;
using service::FleetService;
using service::RequestKind;
using service::ResponseStatus;
using service::ServiceRequest;
using service::ServiceResponse;

/** Outcome of one service-backed case run. */
struct ServiceRunResult
{
    uint64_t digest = 0;
    std::string exportJson;
    uint64_t submitted = 0;
    uint64_t responses = 0;
    uint64_t junk = 0;      //!< contract-violating responses
    std::size_t stuck = 0;  //!< requests still pending at the end
};

std::string
freshDbDir(const std::string &name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 8; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(dir + "/journal.wal");
    return dir;
}

/**
 * Build the case's fleet, front it with a FleetService, and play the
 * request schedule: step.tick requests are submitted before that
 * scheduler round. Runs a few drain rounds afterwards so parked
 * verifies/summaries answer. The db (when store-backed) lives inside
 * this function, so the whole run — including teardown — happens
 * before the caller compares exports.
 */
ServiceRunResult
runServiceCase(const PropertyCase &pc, unsigned threads)
{
    FleetConfig cfg = pc.fleet;
    cfg.threads = threads;
    ChannelScheduler fleet(cfg, Rng(pc.seed));
    for (std::size_t c = 0; c < pc.channels; ++c) {
        BusChannelConfig channel = pc.channel;
        channel.name = "w" + std::to_string(c);
        fleet.addChannel(channel);
    }
    fleet.calibrateAll();

    FaultInjector injector(pc.faults, Rng(pc.seed ^ 0xfau));
    if (!pc.faults.empty())
        fleet.channel(pc.faultChannel).attachFaultInjector(&injector);

    static int invocation = 0;
    std::unique_ptr<store::EnrollmentDb> db;
    std::unique_ptr<FaultInjector> storageInjector;
    if (pc.storeBacked) {
        store::EnrollmentDbConfig dbCfg;
        dbCfg.directory = freshDbDir(
            "svc_prop_" + std::to_string(pc.index) + "_" +
            std::to_string(threads) + "_" +
            std::to_string(invocation++));
        dbCfg.shards = 4;
        dbCfg.overlayFlushRecords = 2;
        db.reset(new store::EnrollmentDb(dbCfg));
        db->attachTelemetry(&fleet.telemetry());
        if (!pc.storageFaults.empty()) {
            storageInjector.reset(new FaultInjector(
                pc.storageFaults, Rng(pc.seed ^ 0x57AB1EULL)));
            db->attachFaultInjector(storageInjector.get());
        }
        if (!db->open()) {
            ServiceRunResult failed;
            failed.exportJson = "db open failed";
            return failed;
        }
        // One enrollment's headroom: every tick evicts whatever is
        // unpinned, so requests race hydration and eviction.
        fleet.attachStore(db.get(),
                          fleet.channel(0).enrollmentBytes() * 3 / 2);
    }

    ServiceRunResult r;
    {
        FleetService svc(fleet);
        uint64_t id = 1;
        std::size_t next = 0;
        const double bar = fleet.config().similarityThreshold;
        const auto drain = [&]() {
            for (const ServiceResponse &resp : svc.drainResponses()) {
                if (resp.kind == RequestKind::Verify &&
                    resp.status == ResponseStatus::Ok) {
                    const bool flagged =
                        (resp.flags &
                         service::kResponseAuthenticated) != 0;
                    if (flagged != (resp.similarity >= bar))
                        ++r.junk;
                    if (resp.state ==
                        static_cast<uint64_t>(
                            AuthState::PendingReenroll))
                        ++r.junk; // fenced wires must answer Fenced
                }
            }
        };
        for (std::size_t t = 0; t < pc.ticks; ++t) {
            while (next < pc.requests.size() &&
                   pc.requests[next].tick == t) {
                const RequestStep &step = pc.requests[next++];
                ServiceRequest rq;
                rq.id = id++;
                rq.kind = static_cast<RequestKind>(step.kind);
                rq.channel = step.channel;
                svc.submit(rq);
            }
            fleet.tick();
            drain();
        }
        for (int extra = 0;
             extra < 8 && svc.pendingRequests() > 0; ++extra) {
            fleet.tick();
            drain();
        }
        r.stuck = svc.pendingRequests();
        r.digest = svc.responseDigest();
        r.submitted = svc.stats().submitted;
        r.responses = svc.stats().responses;
    } // service teardown closes any abandoned spans deterministically

    if (!pc.faults.empty())
        fleet.channel(pc.faultChannel).attachFaultInjector(nullptr);
    r.exportJson = fleet.telemetry().exportJson();
    return r;
}

TEST(ServiceProperty, SchedulesAnswerCompletelyAndDeterministically)
{
    const std::size_t cases = property::caseCount();
    for (std::size_t i = 0; i < cases; ++i) {
        const PropertyCase pc = property::generateCase(i);
        const ServiceRunResult serial = runServiceCase(pc, 1);
        const ServiceRunResult pooled = runServiceCase(pc, 4);

        // Completeness: every submit answers exactly once; no parked
        // request outlives the drain rounds.
        EXPECT_EQ(serial.stuck, 0u) << "case " << i;
        EXPECT_EQ(serial.responses, serial.submitted) << "case " << i;

        // No junk under any interleaving of requests with eviction,
        // scrub, fault plans, and fence demotions.
        EXPECT_EQ(serial.junk, 0u) << "case " << i;
        EXPECT_EQ(pooled.junk, 0u) << "case " << i;

        // Determinism: the response stream and the full telemetry
        // export are a pure function of (seed, config) — identical
        // bytes at 1 and 4 worker threads.
        EXPECT_EQ(serial.digest, pooled.digest) << "case " << i;
        EXPECT_EQ(serial.exportJson, pooled.exportJson)
            << "case " << i;
    }
}

} // namespace
} // namespace divot
