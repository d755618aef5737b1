/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark's own code around the public
 * calls it makes into each layer: name, start, end, parent, thread
 * and (for service calls) the request id. They stay in memory and are
 * written out when the run ends. A disabled tracer hands out inert
 * scopes, so the untraced run pays one branch per call site.
 *
 * A span's self time is its duration minus the part of its interval
 * covered by its children (children may run on other threads, e.g.
 * pool tasks under a parallelFor span). Request-lifetime spans are
 * recorded as `async`: they overlap the synchronous calls that serve
 * them and stay out of the self-time tree.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool on);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    /** One open span; closes on destruction. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Tracer *tracer, int id) : tracer_(tracer), id_(id) {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** @return span id (-1 when tracing is off). */
        int id() const { return id_; }

      private:
        Tracer *tracer_ = nullptr;
        int id_ = -1;
    };

    /** Open a span under the innermost open span of this thread. */
    Scope span(const char *name, uint64_t request = 0);

    /** Open a span under an explicit parent (cross-thread work). */
    Scope spanUnder(const char *name, int parent, uint64_t request = 0);

    /** Record a finished request-lifetime span (async). */
    void async(const char *name, double start, double end,
               uint64_t request);

    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        uint32_t thread;
        uint64_t request;
        bool async;
    };

    /** Per-name aggregate of synchronous spans. */
    struct Summary
    {
        uint64_t count = 0;
        double total = 0.0; //!< Σ duration, seconds
        double self = 0.0;  //!< Σ self time, seconds
        bool leaf = true;   //!< no span of this name has children
    };

    /** Aggregate every synchronous span by name. */
    std::map<std::string, Summary> summarize() const;

    /** @return durations (seconds) of the spans named `name`. */
    std::vector<double> durations(const std::string &name) const;

    /** @return spans recorded so far. */
    std::size_t size() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    friend class Scope;
    int open(const char *name, int parent, uint64_t request);
    void close(int id);

    bool on_;
    double origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
