/**
 * @file
 * Lightweight logging utilities in the spirit of gem5's logging.hh.
 *
 * Four severities are provided:
 *  - inform(): status messages with no connotation of incorrect behaviour.
 *  - warn():   something may be wrong but the run can continue.
 *  - fatal():  the run cannot continue because of a user error
 *              (bad configuration, invalid arguments); exits with code 1.
 *  - panic():  an internal invariant was violated (a library bug); aborts.
 */

#ifndef A3_UTIL_LOGGING_HPP
#define A3_UTIL_LOGGING_HPP

#include <cstdlib>
#include <sstream>
#include <string>

namespace a3 {

/** Verbosity levels for the global logger. */
enum class LogLevel {
    Quiet = 0,  ///< only fatal/panic output
    Warn = 1,   ///< warnings and above
    Info = 2,   ///< informational messages and above
    Debug = 3,  ///< everything, including debug traces
};

/** Set the process-wide log verbosity. Thread-compatible, not thread-safe. */
void setLogLevel(LogLevel level);

/** Current process-wide log verbosity. */
LogLevel logLevel();

namespace detail {

/** Emit a formatted log line to stderr if `level` passes the filter. */
void emit(LogLevel level, const char *tag, const std::string &message);

/** Fold a parameter pack into a single string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

}  // namespace detail

/** Informational message (level Info). */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit(LogLevel::Info, "info",
                 detail::concat(std::forward<Args>(args)...));
}

/** Debug trace (level Debug). */
template <typename... Args>
void
debug(Args &&...args)
{
    detail::emit(LogLevel::Debug, "debug",
                 detail::concat(std::forward<Args>(args)...));
}

/** Warning: possibly-incorrect behaviour that does not stop the run. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit(LogLevel::Warn, "warn",
                 detail::concat(std::forward<Args>(args)...));
}

namespace detail {

/**
 * Flush stdio and end the process with `status` at once. Static
 * destructors are skipped on purpose: other threads (engine pool
 * lanes, workers) may still be running and touching those objects.
 */
[[noreturn]] void exitNow(int status);

}  // namespace detail

/**
 * Unrecoverable user error (bad inputs or configuration).
 * Prints the message and exits with status 1, without running static
 * destructors (see detail::exitNow), so it is safe from any thread of
 * a process that already runs others.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emit(LogLevel::Quiet, "fatal",
                 detail::concat(std::forward<Args>(args)...));
    detail::exitNow(1);
}

/**
 * Internal invariant violation (a bug in this library).
 * Prints the message and aborts so a core dump / debugger can take over.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit(LogLevel::Quiet, "panic",
                 detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** panic() unless `cond` holds; usage: a3Assert(x > 0, "x was ", x). */
template <typename Cond, typename... Args>
void
a3Assert(const Cond &cond, Args &&...args)
{
    if (!cond)
        panic("assertion failed: ", std::forward<Args>(args)...);
}

}  // namespace a3

#endif  // A3_UTIL_LOGGING_HPP
