/**
 * @file
 * Seeded property-test harness: generates random *valid*
 * ItdrConfig / fleet / FaultPlan combinations so the pipeline
 * invariants (counter balance, span balance, thread-count
 * determinism, strobe-engine eligibility, fault-free health) can be
 * checked over a whole family of configurations instead of a few
 * hand-picked ones.
 *
 * Case count defaults to 64 and scales with the DIVOT_PROPERTY_CASES
 * environment variable (e.g. =8 for a smoke run, =512 for a soak).
 * Every case is a pure function of its index, so a failure report of
 * "case 17" reproduces in isolation.
 */

#ifndef DIVOT_TESTS_PROPERTY_HARNESS_HH
#define DIVOT_TESTS_PROPERTY_HARNESS_HH

#include <cstdlib>
#include <string>

#include "fault/fault.hh"
#include "fleet/channel_scheduler.hh"
#include "itdr/itdr.hh"
#include "util/rng.hh"

namespace divot {
namespace property {

/** One scheduled service request of a property case. `channel` may
 *  name a wire that exists, a duplicate of another step's wire, or
 *  nothing at all (admission must answer Unknown, never crash). */
struct RequestStep
{
    std::size_t tick = 0;  //!< scheduler round it is submitted before
    unsigned kind = 1;     //!< service::RequestKind ordinal
    std::string channel;   //!< target wire name (empty for summary)
};

/** One generated scenario. */
struct PropertyCase
{
    std::size_t index = 0;       //!< case ordinal (reproduction key)
    uint64_t seed = 0;           //!< master seed for the fleet
    FleetConfig fleet;           //!< scheduler knobs (threads unset)
    BusChannelConfig channel;    //!< per-wire knobs (name unset)
    std::size_t channels = 2;    //!< wires in the bus
    std::size_t ticks = 3;       //!< scheduler rounds to run
    FaultPlan faults;            //!< empty for fault-free cases
    std::size_t faultChannel = 0; //!< channel carrying the plan
    bool binomialEligible = false; //!< analytic engine serves every
                                   //!< measurement of this case
    std::vector<RequestStep> requests; //!< service request schedule
    bool storeBacked = false;    //!< run against an EnrollmentDb with
                                 //!< an eviction-churning budget
    FaultPlan storageFaults;     //!< storage plan for the db (empty
                                 //!< for most cases)
};

/** @return case count: DIVOT_PROPERTY_CASES or 64. */
inline std::size_t
caseCount()
{
    if (const char *env = std::getenv("DIVOT_PROPERTY_CASES")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    return 64;
}

/**
 * Generate case `index`. All draws come from a stable fork of the
 * harness seed, so the case is independent of how many cases run and
 * of every other case.
 */
inline PropertyCase
generateCase(std::size_t index)
{
    Rng rng = Rng(0xd1507ULL).forkStable(0x9000ULL + index);
    PropertyCase pc;
    pc.index = index;
    pc.seed = rng.next();

    // Fleet shape: small enough to keep 64 cases fast, varied enough
    // to exercise both policies and under-provisioned pools.
    pc.channels = 2 + rng.uniformInt(2);             // 2-3 wires
    pc.fleet.instruments = 1 + rng.uniformInt(pc.channels);
    pc.fleet.policy = rng.bernoulli(0.5)
        ? SchedulerPolicy::RiskWeighted : SchedulerPolicy::RoundRobin;
    pc.ticks = 3 + rng.uniformInt(2);                // 3-4 rounds

    // Channel / instrument knobs, all within validated ranges.
    pc.channel.lineLength = rng.uniform(0.08, 0.14);
    pc.channel.enrollReps = 4 + rng.uniformInt(3);   // 4-6
    pc.channel.itdr.trialsPerPhase =
        static_cast<unsigned>(120 + rng.uniformInt(81));  // 120-200
    pc.channel.itdr.counterWidthBits =
        static_cast<unsigned>(10 + rng.uniformInt(3));    // 10-12
    pc.channel.itdr.traceCacheCapacity = rng.uniformInt(3); // 0-2
    pc.channel.itdr.batchedStrobes = rng.bernoulli(0.75);
    pc.channel.auth.averageWindow = 2 + rng.uniformInt(6);

    // Strobe engine: the analytic binomial path serves a measurement
    // only on a jitter-free clock-lane sweep with no extra noise and
    // no metastable band; anything else falls back to Sampled. Half
    // the cases request Binomial; a subset of those is deliberately
    // made ineligible so the fallback accounting gets exercised too.
    if (rng.bernoulli(0.5)) {
        pc.channel.itdr.strobeModel = StrobeModel::Binomial;
        if (rng.bernoulli(0.3)) {
            pc.channel.itdr.pll.jitterRms = 0.5e-12;  // forces fallback
            pc.binomialEligible = false;
        } else {
            pc.binomialEligible = true;
        }
    }

    // A third of the cases carry an instrument fault plan (never a
    // physical attack: these invariants are about the pipeline's own
    // bookkeeping, not detection).
    if (index % 3 == 2) {
        const uint64_t start = rng.uniformInt(3);
        switch (rng.uniformInt(3)) {
          case 0:
            pc.faults.comparatorStuck(start, 1 + rng.uniformInt(2),
                                      rng.bernoulli(0.5));
            break;
          case 1:
            pc.faults.offsetDrift(start, 1 + rng.uniformInt(2),
                                  rng.uniform(0.5e-3, 3e-3));
            break;
          default:
            pc.faults.budgetOverrun(start, 1, rng.uniform(2.0, 4.0));
            break;
        }
        pc.faultChannel = rng.uniformInt(pc.channels);
    }

    // Two discarded draws (they once chose a reactor scheduling
    // mode): dropping them would shift every draw below, so each
    // case keeps its service schedule and store faults across
    // harness revisions.
    if (rng.bernoulli(1.0 / 3.0))
        rng.uniformInt(3);

    // Service request schedule (PR10), riding further down the tail:
    // every draw above keeps its pre-service value. Mixed kinds,
    // deliberate duplicate targets, and unknown names; half the cases
    // run store-backed with an eviction-churning budget so requests
    // race hydration/eviction/scrub, and a quarter of those carry a
    // storage fault plan (handle-preserving faults only — torn
    // writes, bit rot, truncation — so the scheduler's no-reopen
    // store contract holds).
    pc.storeBacked = rng.bernoulli(0.5);
    const std::size_t bursts = 1 + rng.uniformInt(3); // per tick
    for (std::size_t t = 0; t < pc.ticks; ++t) {
        for (std::size_t b = 0; b < bursts; ++b) {
            if (rng.bernoulli(0.4))
                continue; // quiet slot
            RequestStep step;
            step.tick = t;
            step.kind = static_cast<unsigned>(rng.uniformInt(5));
            if (step.kind != 4) { // not FleetSummary
                if (rng.bernoulli(0.15))
                    step.channel =
                        "ghost" + std::to_string(rng.uniformInt(3));
                else
                    step.channel =
                        "w" + std::to_string(
                                  rng.uniformInt(pc.channels));
            }
            pc.requests.push_back(step);
        }
    }
    if (pc.storeBacked && rng.bernoulli(0.25)) {
        const uint64_t at = rng.uniformInt(6);
        switch (rng.uniformInt(3)) {
          case 0:
            pc.storageFaults.storageTornWrite(at);
            break;
          case 1:
            pc.storageFaults.storageBitRot(at, 1, 12.0);
            break;
          default:
            pc.storageFaults.storageTruncation(at, 0.55);
            break;
        }
    }
    return pc;
}

/**
 * Build and run the case's fleet at the given thread count and return
 * the scheduler (whose Telemetry holds the run's full accounting).
 * A fresh FaultInjector is created per run so the injected schedule
 * restarts from measurement 0.
 */
inline ChannelScheduler
runCase(const PropertyCase &pc, unsigned threads)
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
    // The injector must outlive the run; keep it owned by the channel
    // scope via a static-free idiom: attach, run, detach.
    FaultInjector injector(pc.faults, Rng(pc.seed ^ 0xfau));
    if (!pc.faults.empty())
        fleet.channel(pc.faultChannel).attachFaultInjector(&injector);
    for (std::size_t t = 0; t < pc.ticks; ++t)
        fleet.tick();
    if (!pc.faults.empty())
        fleet.channel(pc.faultChannel).attachFaultInjector(nullptr);
    return fleet;
}

} // namespace property
} // namespace divot

#endif // DIVOT_TESTS_PROPERTY_HARNESS_HH
