/**
 * @file
 * Property tests over generated pipeline configurations (see
 * property_harness.hh): for every case the telemetry accounting must
 * balance, the strobe-engine eligibility accounting must match the
 * configuration, fault-free runs must pass every health screen, and
 * the deterministic telemetry export must be byte-identical at any
 * thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "property_harness.hh"
#include "telemetry/telemetry.hh"

namespace divot {
namespace {

using property::PropertyCase;

TEST(PropertyPipeline, GeneratedCasesHoldAllInvariants)
{
    const std::size_t cases = property::caseCount();
    ASSERT_GE(cases, 1u);
    for (std::size_t i = 0; i < cases; ++i) {
        SCOPED_TRACE("property case " + std::to_string(i));
        const PropertyCase pc = property::generateCase(i);
        ChannelScheduler fleet = property::runCase(pc, 1);
        const Telemetry &telemetry = fleet.telemetry();
        const Registry &reg = telemetry.registry();

        // Span balance: every opened span closed (RAII guarantees it
        // even for abandoned scopes).
        EXPECT_EQ(telemetry.tracer().opened(),
                  telemetry.tracer().closed());

        // Fleet verdict balance: one trusted-or-untrusted verdict per
        // completed tick.
        EXPECT_EQ(reg.counterValue("fleet.verdicts.trusted") +
                      reg.counterValue("fleet.verdicts.untrusted"),
                  reg.counterValue("fleet.ticks"));
        EXPECT_EQ(reg.counterValue("fleet.ticks"), pc.ticks);

        for (std::size_t c = 0; c < pc.channels; ++c) {
            const std::string wire = "w" + std::to_string(c);
            SCOPED_TRACE("channel " + wire);
            const std::string itdr = "itdr." + wire;
            const std::string auth = "auth." + wire;

            // Cache balance: every lookup is a hit or a miss.
            EXPECT_EQ(reg.counterValue(itdr + ".cache.lookups"),
                      reg.counterValue(itdr + ".cache.hits") +
                          reg.counterValue(itdr + ".cache.misses"));

            // Verdict balance: every monitoring round authenticated
            // or rejected, never both, never neither.
            EXPECT_EQ(reg.counterValue(auth + ".rounds"),
                      reg.counterValue(auth + ".verdicts.authenticated") +
                          reg.counterValue(auth + ".verdicts.rejected"));

            // Engine accounting matches the configured strobe model.
            const uint64_t measurements =
                reg.counterValue(itdr + ".measurements");
            const uint64_t analytic =
                reg.counterValue(itdr + ".engine.analytic");
            const uint64_t fallbacks =
                reg.counterValue(itdr + ".engine.fallbacks");
            EXPECT_GT(measurements, 0u);
            if (pc.channel.itdr.strobeModel == StrobeModel::Binomial) {
                if (pc.binomialEligible) {
                    EXPECT_EQ(analytic, measurements);
                    EXPECT_EQ(fallbacks, 0u);
                } else {
                    EXPECT_EQ(analytic, 0u);
                    EXPECT_EQ(fallbacks, measurements);
                }
            } else {
                EXPECT_EQ(analytic, 0u);
                EXPECT_EQ(fallbacks, 0u);
            }

            // Fault-free runs never trip a health screen or climb the
            // resilience ladder.
            if (pc.faults.empty()) {
                EXPECT_EQ(reg.counterValue(itdr + ".health.failed"), 0u);
                EXPECT_EQ(reg.counterValue(auth + ".unhealthy_rounds"),
                          0u);
                EXPECT_EQ(reg.counterValue(auth + ".retries"), 0u);
            }
        }
    }
}

TEST(PropertyPipeline, ExportByteIdenticalAcrossThreadCounts)
{
    // The determinism half of the contract: the same generated case
    // run serial and with a contended pool must serialize the exact
    // same deterministic snapshot. A shorter sweep than the invariant
    // test (every case runs twice here).
    const std::size_t cases = std::min<std::size_t>(
        property::caseCount(), 16);
    for (std::size_t i = 0; i < cases; ++i) {
        SCOPED_TRACE("property case " + std::to_string(i));
        const PropertyCase pc = property::generateCase(i);
        ChannelScheduler serial = property::runCase(pc, 1);
        ChannelScheduler pooled = property::runCase(pc, 3);
        EXPECT_EQ(serial.telemetry().exportJson(),
                  pooled.telemetry().exportJson());
    }
}

TEST(PropertyPipeline, CaseGenerationIsAPureFunctionOfIndex)
{
    for (std::size_t i = 0; i < 8; ++i) {
        const PropertyCase a = property::generateCase(i);
        const PropertyCase b = property::generateCase(i);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.channels, b.channels);
        EXPECT_EQ(a.ticks, b.ticks);
        EXPECT_EQ(a.channel.itdr.trialsPerPhase,
                  b.channel.itdr.trialsPerPhase);
        EXPECT_EQ(a.faults.specs().size(), b.faults.specs().size());
    }
}

} // namespace
} // namespace divot
