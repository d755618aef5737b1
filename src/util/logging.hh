/**
 * @file
 * Logging and error-reporting helpers in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated: a bug in this library.
 *            Prints the message and aborts (core dump friendly).
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Prints and exits(1).
 * warn()   — something is suspicious but the run continues.
 * inform() — status messages with no connotation of incorrectness.
 */

#ifndef DIVOT_UTIL_LOGGING_HH
#define DIVOT_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace divot {

/** Severity levels used by the message sink. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Route a formatted message to the log sink.
 *
 * @param level severity of the message
 * @param fmt   printf-style format string
 */
void logMessage(LogLevel level, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Internal invariant violated — print and abort. Never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Unrecoverable user error — print and exit(1). Never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Suppress or restore non-fatal log output. Benches use this to keep
 * their stdout tables clean.
 *
 * @param quiet true silences Inform/Warn messages
 */
void setLogQuiet(bool quiet);

} // namespace divot

#define divot_panic(...) \
    ::divot::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define divot_fatal(...) \
    ::divot::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define divot_warn(...) \
    ::divot::logMessage(::divot::LogLevel::Warn, __VA_ARGS__)
#define divot_inform(...) \
    ::divot::logMessage(::divot::LogLevel::Inform, __VA_ARGS__)

#endif // DIVOT_UTIL_LOGGING_HH
