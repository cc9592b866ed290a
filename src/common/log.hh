/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * panic() is for internal simulator bugs (aborts); fatal() is for user
 * errors such as invalid configurations (clean exit); warn()/inform() are
 * non-fatal notices.
 */

#ifndef GETM_COMMON_LOG_HH
#define GETM_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace getm {

/** Report an internal simulator bug and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a normal status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);

} // namespace getm

#endif // GETM_COMMON_LOG_HH
