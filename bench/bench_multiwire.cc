/**
 * @file
 * MULTI — multi-wire monitoring (paper Section IV-C / future work):
 * "Theoretical analysis suggests that monitoring multiple wires on a
 * bus can exponentially increase authentication accuracy." Fused
 * geometric-mean scores across independently fingerprinted wires
 * drive the impostor distribution down multiplicatively.
 *
 * Two gates run after the table (both fail the process):
 *  - the fused EER must be monotonically non-increasing in wire
 *    count — the paper's central multi-wire claim;
 *  - a 6-channel fleet round through the ChannelScheduler must be
 *    bit-identical at 1 and 8 worker threads under both scheduling
 *    policies — both the probe/verdict trace and the telemetry
 *    snapshot, byte for byte.
 *
 * --json additionally writes BENCH_multiwire.json with the EER table,
 * the gate results, and the single-threaded risk-weighted fleet's
 * telemetry snapshot embedded.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fingerprint/study.hh"
#include "fleet/channel_scheduler.hh"
#include "telemetry/telemetry.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace divot;

namespace {

/** Build the vibration-stressed fleet used by the determinism gate. */
ChannelScheduler
makeFleet(unsigned threads, SchedulerPolicy policy, uint64_t seed)
{
    FleetConfig cfg;
    cfg.instruments = 3;
    cfg.policy = policy;
    cfg.threads = threads;
    ChannelScheduler fleet(cfg, Rng(seed));
    for (std::size_t c = 0; c < 6; ++c) {
        BusChannelConfig channel;
        channel.lineLength = 0.1;
        channel.enrollReps = 8;
        channel.environment.vibrationStrain = 1.5e-2;
        channel.name = "wire" + std::to_string(c);
        fleet.addChannel(channel);
    }
    fleet.calibrateAll();
    return fleet;
}

/** Run `ticks` fleet rounds and flatten every observable number. */
std::vector<double>
fleetTrace(ChannelScheduler &fleet, std::size_t ticks)
{
    std::vector<double> trace;
    for (std::size_t t = 0; t < ticks; ++t) {
        const FleetRound round = fleet.tick();
        for (const ChannelProbe &probe : round.probes) {
            trace.push_back(static_cast<double>(probe.channel));
            trace.push_back(probe.verdict.similarity);
            trace.push_back(probe.verdict.peakError);
        }
        trace.push_back(round.fused.fusedSimilarity);
        trace.push_back(round.fused.busTrusted ? 1.0 : 0.0);
    }
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    bench::banner("MULTI", "EER vs number of monitored wires", opt);

    // Stress the environment so the single-wire EER is measurably
    // non-zero and the multi-wire improvement has room to show.
    Table table("Accuracy vs monitored wires (vibration-stressed "
                "campaign)");
    table.setHeader({"wires", "genuine mean", "impostor mean",
                     "impostor max", "EER", "EER(fit)", "d'"});

    const std::vector<std::size_t> wire_counts =
        opt.quick ? std::vector<std::size_t>{1, 2, 4}
                  : std::vector<std::size_t>{1, 2, 3, 4, 6};
    std::vector<double> eers;
    for (std::size_t wires : wire_counts) {
        StudyConfig cfg;
        cfg.lines = 4;
        cfg.lineLength = 0.25;
        cfg.wires = wires;
        cfg.enrollReps = 8;
        cfg.genuinePerLine = opt.full ? 256 : (opt.quick ? 24 : 64);
        cfg.impostorPerPair = opt.full ? 64 : (opt.quick ? 8 : 16);
        cfg.environment.vibrationStrain = 1.5e-2;
        const StudyResult res =
            GenuineImpostorStudy(cfg, Rng(opt.seed)).run();
        eers.push_back(res.roc.eer);
        RunningStats g, im;
        g.addAll(res.genuine);
        im.addAll(res.impostor);
        table.addRow({std::to_string(wires), Table::num(g.mean(), 4),
                      Table::num(im.mean(), 4),
                      Table::num(im.max(), 4),
                      Table::num(res.roc.eer, 6),
                      Table::sci(res.fittedEer, 2),
                      Table::num(res.decidability, 2)});
    }
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nexpected shape: impostor mean decays roughly "
                "geometrically with wire count\n(geometric-mean "
                "fusion multiplies per-wire impostor scores), driving "
                "EER toward zero.\n");

    // Gate 1: the central multi-wire claim — adding wires never makes
    // the fused EER worse.
    bool monotone = true;
    for (std::size_t i = 1; i < eers.size(); ++i)
        monotone = monotone && eers[i] <= eers[i - 1] + 1e-12;
    std::printf("\nfused EER monotone non-increasing in wires: %s\n",
                monotone ? "yes" : "NO — MULTI-WIRE CLAIM VIOLATION");

    // Gate 2: fleet determinism — a 6-channel scheduler round must
    // not depend on the worker thread count under either policy.
    // That covers the telemetry layer too: the stable snapshot the
    // fleet exports must serialize to the same bytes at 1 and 8
    // workers.
    bool identical = true;
    std::string snapshot;
    const std::size_t ticks = opt.quick ? 6 : 12;
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::RoundRobin, SchedulerPolicy::RiskWeighted}) {
        ChannelScheduler f1 = makeFleet(1, policy, opt.seed);
        ChannelScheduler f8 = makeFleet(8, policy, opt.seed);
        const std::vector<double> t1 = fleetTrace(f1, ticks);
        const std::vector<double> t8 = fleetTrace(f8, ticks);
        const bool same = t1 == t8;
        snapshot = f1.telemetry().exportJson();
        const bool same_snapshot =
            snapshot == f8.telemetry().exportJson();
        identical = identical && same && same_snapshot;
        std::printf("fleet 6ch/%s: 8 threads == 1 thread "
                    "(bit-identical): trace %s, telemetry %s\n",
                    schedulerPolicyName(policy),
                    same ? "yes" : "NO — DETERMINISM VIOLATION",
                    same_snapshot ? "yes"
                                  : "NO — DETERMINISM VIOLATION");
    }

    if (opt.json) {
        const char *path = "BENCH_multiwire.json";
        std::FILE *f = std::fopen(path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", path);
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"multiwire\",\n");
        std::fprintf(f, "  \"seed\": %llu,\n",
                     static_cast<unsigned long long>(opt.seed));
        std::fprintf(f, "  \"wires\": [");
        for (std::size_t i = 0; i < wire_counts.size(); ++i)
            std::fprintf(f, "%s%zu", i == 0 ? "" : ", ",
                         wire_counts[i]);
        std::fprintf(f, "],\n");
        std::fprintf(f, "  \"eer\": [");
        for (std::size_t i = 0; i < eers.size(); ++i)
            std::fprintf(f, "%s%.6f", i == 0 ? "" : ", ", eers[i]);
        std::fprintf(f, "],\n");
        std::fprintf(f, "  \"monotonePass\": %s,\n",
                     monotone ? "true" : "false");
        std::fprintf(f, "  \"determinismPass\": %s,\n",
                     identical ? "true" : "false");
        // The risk-weighted single-thread fleet's structural metrics.
        std::fprintf(f, "  \"telemetry\":\n");
        bench::writeEmbeddedJson(f, snapshot, "    ");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path);
    }

    return monotone && identical ? 0 : 1;
}
