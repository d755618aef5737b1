/**
 * @file
 * Helpers shared by the workloads: a seeded Zipf channel picker, the
 * ledger that checks every response against the request it answers, a
 * windowed response rate, and telemetry-registry readers.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "itdr/kernels/kernels.hh"
#include "service/request.hh"
#include "store/enrollment_db.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"

namespace perfbench {

class Tracer;

/** Zipf(s) over `n` items; ranks map to items through a seeded
 *  permutation so each seed has its own hot set. */
class ZipfPicker
{
  public:
    ZipfPicker(std::size_t n, double s, divot::Rng &rng);
    std::size_t pick(divot::Rng &rng) const;

  private:
    std::vector<double> cdf_;
    std::vector<std::size_t> item_;
};

/** A latency sample that missed every limit (Busy / Rejected). */
constexpr double kMissed = std::numeric_limits<double>::infinity();

/**
 * Every submitted request and the checks on its response:
 *  - each request is answered exactly once;
 *  - a deliberately unknown name answers Unknown, a real one never
 *    does, and Busy / Rejected count as failed;
 *  - an Ok Verify's authenticated flag agrees with its similarity
 *    against the accept threshold;
 *  - the response's DIVQ frame decodes back to an identical response.
 *
 * Responses to requests submitted before tick `detTicks` feed a
 * chained digest and the virtual-latency sample, both a pure function
 * of the seed however long the timed phase runs.
 */
class RequestLog
{
  public:
    RequestLog(double threshold, uint64_t detTicks);

    void sent(const divot::service::ServiceRequest &rq, uint64_t tick,
              double time, bool ghost);

    /** Check one response drained at host time `time`. */
    void answer(const divot::service::ServiceResponse &r, double time,
                Tracer &tr);

    /** @return requests never answered. */
    uint64_t unanswered() const;

    /** @return failed operations: bad answers plus unanswered ones. */
    uint64_t failed() const { return bad_ + unanswered(); }

    uint64_t submitted() const { return submitted_; }
    uint64_t prefixDigest() const { return digest_; }

    /** Verify submit -> drain, ms (kMissed for Busy/Rejected). */
    const std::vector<double> &verifyMs() const { return verifyMs_; }
    /** Verify answer time in ticks, deterministic prefix only. */
    const std::vector<double> &verifyTicks() const { return verifyTicks_; }

    /** First failure descriptions (bounded). */
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    struct Entry
    {
        double time = 0.0;
        uint64_t tick = 0;
        divot::service::RequestKind kind{};
        bool ghost = false;
    };
    void fail(const std::string &why);

    double threshold_;
    uint64_t detTicks_;
    std::unordered_map<uint64_t, Entry> entries_; //!< not yet answered
    uint64_t submitted_ = 0;
    uint64_t bad_ = 0;
    uint64_t digest_ = 0;
    std::vector<double> verifyMs_;
    std::vector<double> verifyTicks_;
    std::vector<std::string> errors_;
};

/**
 * Responses per second over consecutive windows of ticks. The median
 * window rate resists the preemption spikes a shared host adds to
 * single ticks, where one total over the run would absorb them.
 */
class WindowedRate
{
  public:
    explicit WindowedRate(uint64_t ticksPerWindow) : size_(ticksPerWindow) {}

    /** Account one tick's responses and time inside the system. */
    void tick(uint64_t responses, double seconds);

    /** @return median rate of the closed windows (the open one when
     *  none has closed). */
    double median() const;

  private:
    uint64_t size_;
    uint64_t ticks_ = 0;
    uint64_t responses_ = 0;
    double seconds_ = 0.0;
    std::vector<double> rates_;
};

/** Median EnrollmentDb::shardView time over every shard, microseconds. */
struct ShardViewProbe
{
    double coldUs = 0.0; //!< decoded-image cache dropped first
    double warmUs = 0.0; //!< the same pass repeated
};

/**
 * Time shardView over every shard twice: after dropping the decoded
 * image cache (setShardCacheLanes with the owner's lane count, so the
 * partition is unchanged), then warm. Spans "store.shard_view_cold" /
 * "store.shard_view_warm".
 */
ShardViewProbe probeShardViews(divot::store::EnrollmentDb &db,
                               unsigned lanes, Tracer &tr);

/** @return the strobe-kernel target `requested` resolves to, as a
 *  number: 0 scalar, 1 AVX2, 2 NEON. */
double kernelTargetCode(divot::SimdTarget requested);

/** name -> value of every counter (stable and unstable). */
std::map<std::string, uint64_t> counterSnapshot(const divot::Telemetry &tm);

/** Σ over counters ending in `suffix`, `after` minus `before`. */
double counterDelta(const std::map<std::string, uint64_t> &before,
                    const std::map<std::string, uint64_t> &after,
                    const std::string &suffix);

/** Σ of the sums of histograms whose name ends in `suffix`. */
double histogramSum(const divot::Telemetry &tm, const std::string &suffix);

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH
