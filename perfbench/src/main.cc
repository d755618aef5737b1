/**
 * @file
 * divot_perfbench — runs one benchmark workload and prints its metrics.
 *
 *   divot_perfbench --workload <study-oven|fleet-service|megafleet-100k>
 *                   --seed N --seconds S --trace 0|1
 *                   [--work-dir DIR] [--tiny]
 *
 * Output: a `report` JSON line (provenance, the workload's own figures,
 * digests, failed checks, and with --trace 1 the self time per span),
 * then the result line {"correct", "attempted", "failed", "metrics"}:
 * end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
 * Exit status 0 when every output check passed, 1 when one failed, 2 on
 * bad arguments.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hh"
#include "itdr/kernels/kernels.hh"
#include "trace.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "divot_perfbench: %s\nusage: divot_perfbench --workload "
                 "<study-oven|fleet-service|megafleet-100k> --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--tiny]\n",
                 why);
    return 2;
}

/** JSON string literal (the strings here are ASCII identifiers and
 *  messages; quotes and backslashes are escaped, control bytes
 *  dropped). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
metricsObject(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += quote(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quote(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string
stringObject(const std::map<std::string, std::string> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m) {
        if (out.size() > 1)
            out += ", ";
        out += quote(k) + ": " + quote(v);
    }
    return out + "}";
}

/** Cost of one span open/close on this host, seconds. */
double
spanCost()
{
    Tracer probe(true);
    constexpr int n = 20000;
    const double t0 = now();
    for (int i = 0; i < n; ++i)
        auto span = probe.span("probe");
    return (now() - t0) / n;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    opt.threads = std::min(4u, nproc);
    opt.workDir = ".bench_build/perfbench-work";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--workload" && hasValue) {
            opt.workload = argv[++i];
            haveWorkload = true;
        } else if (a == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds" && hasValue) {
            opt.seconds = std::atof(argv[++i]);
            haveSeconds = opt.seconds > 0.0;
        } else if (a == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = v == "1";
            haveTrace = true;
        } else if (a == "--work-dir" && hasValue) {
            opt.workDir = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are required");

    Outcome (*run)(const Options &, Tracer &) = nullptr;
    if (opt.workload == "study-oven")
        run = runStudyOven;
    else if (opt.workload == "fleet-service")
        run = runFleetService;
    else if (opt.workload == "megafleet-100k")
        run = runMegafleet;
    else
        return usage(("unknown workload " + opt.workload).c_str());

    // Library progress messages would interleave with the result; the
    // conditions they report (engine fallbacks, ...) are checked from
    // counters instead.
    divot::setLogQuiet(true);
    Tracer tracer(opt.trace);
    Outcome out;
    try {
        makeDirs(opt.workDir);
        const double t0 = now();
        out = run(opt, tracer);
        const double wall = now() - t0;
        if (opt.trace) {
            const bool direct = std::any_of(
                out.layers.begin(), out.layers.end(), [](const Metric &m) {
                    return m.name == "trace.overhead_ratio";
                });
            if (!direct) {
                // No untraced twin of this run in the process: estimate
                // the overhead from the span count and the measured
                // cost of one span.
                out.layer("trace.overhead_ratio",
                          static_cast<double>(tracer.size()) * spanCost() /
                              wall,
                          "ratio");
            }
            out.layer("trace.spans", static_cast<double>(tracer.size()),
                      "count");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "divot_perfbench: %s\n", e.what());
        return 1;
    }

    std::map<std::string, std::string> prov;
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    prov["commit"] = commit != nullptr && *commit != '\0' ? commit
                                                          : "unavailable";
    prov["build_type"] = PERFBENCH_BUILD_TYPE;
    prov["compiler"] = PERFBENCH_COMPILER;
    prov["simd_target"] =
        divot::simdTargetName(divot::resolveSimdTarget(divot::SimdTarget::Auto));
    prov["nproc"] = std::to_string(nproc);
    prov["threads"] = std::to_string(opt.threads);
    prov["seed"] = std::to_string(opt.seed);
    prov["store_fs"] = filesystemType(opt.workDir);
    prov["workload"] = opt.workload;
    prov["scale"] = opt.tiny ? "tiny" : "full";
    for (const auto &[k, v] : out.info)
        prov[k] = v;

    std::string problems = "[";
    for (std::size_t i = 0; i < out.problems.size(); ++i)
        problems += (i > 0 ? ", " : "") + quote(out.problems[i]);
    problems += "]";

    std::string spans = "{";
    if (opt.trace) {
        for (const auto &[name, s] : tracer.summarize()) {
            if (spans.size() > 1)
                spans += ", ";
            spans += quote(name) + ": {\"count\": " +
                number(static_cast<double>(s.count)) + ", \"total_s\": " +
                number(s.total) + ", \"self_s\": " + number(s.self) + "}";
        }
        const std::string path = opt.workDir + "/spans-" + opt.workload +
            "-seed" + std::to_string(opt.seed) + ".jsonl";
        if (tracer.write(path))
            prov["span_file"] = path;
    }
    spans += "}";

    std::printf("{\"report\": {\"provenance\": %s, \"figures\": %s, "
                "\"digests\": %s, \"problems\": %s, \"span_self_times\": "
                "%s}}\n",
                stringObject(prov).c_str(),
                metricsObject(out.details).c_str(),
                stringObject(out.digests).c_str(), problems.c_str(),
                spans.c_str());
    const bool correct = out.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    out.attempted, 1)),
                static_cast<unsigned long long>(out.failed),
                metricsObject(opt.trace ? out.layers : out.endToEnd).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
