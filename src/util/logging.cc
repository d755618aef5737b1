#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace divot {

namespace {

bool quietFlag = false;

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

void
vlogMessage(LogLevel level, const char *fmt, va_list ap)
{
    if (quietFlag &&
        (level == LogLevel::Inform || level == LogLevel::Warn)) {
        return;
    }
    std::fprintf(stderr, "[%s] ", levelTag(level));
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

} // namespace

void
logMessage(LogLevel level, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vlogMessage(level, fmt, ap);
    va_end(ap);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "[panic] %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "[fatal] %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
setLogQuiet(bool quiet)
{
    quietFlag = quiet;
}

} // namespace divot
