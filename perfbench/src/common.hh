/**
 * @file
 * Shared pieces of the benchmark binary: options, the result record a
 * workload fills, order statistics, digests, and host probes (clock,
 * peak RSS, filesystem type, work directories).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;        //!< self-test scale (seconds-long runs)
    unsigned threads = 1;     //!< min(4, nproc)
    std::string workDir;      //!< work root inside the checkout
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload reports. `endToEnd` is printed with tracing off,
 * `layers` with tracing on; `details` (the workload's own figures
 * under their natural names), `digests`, `guards` and `problems` are
 * printed on the report line in both modes.
 */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    std::vector<Metric> details;
    std::map<std::string, std::string> digests;
    std::map<std::string, std::string> info;
    std::vector<std::string> problems; //!< failed output checks/guards

    void e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, value, unit});
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        layers.push_back({name, value, unit});
    }
    void detail(const std::string &name, double value,
                const std::string &unit)
    {
        details.push_back({name, value, unit});
    }
    /** Record a failed check (the run then reports correct=false). */
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            problems.push_back(what);
    }
};

/** Monotonic host clock, seconds. */
double now();

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile q in [0, 1] of `v` (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Process peak resident set size, MiB. */
double peakRssMib();

/** Name of the filesystem holding `path` ("tmpfs", "ext4", ...). */
std::string filesystemType(const std::string &path);

/** Create `path` (and parents); fatal on failure. */
void makeDirs(const std::string &path);

/** Remove a directory tree (missing is fine). */
void removeTree(const std::string &path);

/** FNV-1a over raw bytes, chained from `h`. */
uint64_t fnv1a(uint64_t h, const void *data, std::size_t n);

/** Chain a double's bit pattern into `h`. */
uint64_t foldDouble(uint64_t h, double v);

/** Chain an integer into `h`. */
uint64_t foldU64(uint64_t h, uint64_t v);

/** Lower-case 16-digit hex. */
std::string hex64(uint64_t v);

/** FNV-1a offset basis (digest start value). */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** @name Workloads (each in its own translation unit). */
///@{
Outcome runStudyOven(const Options &opt, Tracer &tracer);
Outcome runFleetService(const Options &opt, Tracer &tracer);
Outcome runMegafleet(const Options &opt, Tracer &tracer);
///@}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
