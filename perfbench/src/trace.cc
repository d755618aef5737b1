#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common.hh"

namespace perfbench {

namespace {

/** Open-span stack of the calling thread (innermost last). */
thread_local std::vector<int> tlsStack;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

Tracer::Tracer(bool on) : on_(on), origin_(now()) {}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close(id_);
}

Tracer::Scope
Tracer::span(const char *name, uint64_t request)
{
    if (!on_)
        return Scope();
    const int parent = tlsStack.empty() ? -1 : tlsStack.back();
    return Scope(this, open(name, parent, request));
}

Tracer::Scope
Tracer::spanUnder(const char *name, int parent, uint64_t request)
{
    if (!on_)
        return Scope();
    return Scope(this, open(name, parent, request));
}

int
Tracer::open(const char *name, int parent, uint64_t request)
{
    const double start = now();
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(spans_.size());
        spans_.push_back(
            {name, start, start, parent, threadIndex(), request, false});
    }
    tlsStack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    const double end = now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = end;
    }
    if (!tlsStack.empty() && tlsStack.back() == id)
        tlsStack.pop_back();
}

void
Tracer::async(const char *name, double start, double end,
              uint64_t request)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, -1, threadIndex(), request, true});
}

std::map<std::string, Tracer::Summary>
Tracer::summarize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!s.async && s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                static_cast<int>(i));
    }
    std::map<std::string, Summary> out;
    std::vector<std::pair<double, double>> cover;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.async)
            continue;
        cover.clear();
        for (const int c : children[i]) {
            const Span &k = spans_[static_cast<std::size_t>(c)];
            const double a = std::max(k.start, s.start);
            const double b = std::min(k.end, s.end);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : cover) {
            const double from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        Summary &sum = out[s.name];
        const double dur = s.end - s.start;
        ++sum.count;
        sum.total += dur;
        sum.self += dur - covered;
        if (!children[i].empty())
            sum.leaf = false;
    }
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out.push_back(s.end - s.start);
    }
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                     "\"parent\": %d, \"thread\": %u, \"request\": %llu, "
                     "\"async\": %s}\n",
                     s.name, s.start - origin_, s.end - origin_, s.parent,
                     s.thread, static_cast<unsigned long long>(s.request),
                     s.async ? "true" : "false");
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
