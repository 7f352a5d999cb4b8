/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal invariant was violated (a bug in Adyna itself);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  - the simulation cannot continue due to a user error (bad
 *            configuration, invalid arguments); exits with code 1.
 * warn()   - functionality is approximated but the run can continue.
 */

#ifndef ADYNA_COMMON_LOGGING_HH
#define ADYNA_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace adyna {

namespace detail {

void appendOne(std::ostringstream &os);

template <typename T, typename... Rest>
void
appendOne(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendOne(os, rest...);
}

/** Concatenate all arguments through operator<<. */
template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    appendOne(os, args...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

} // namespace adyna

#define ADYNA_PANIC(...)                                                   \
    ::adyna::detail::panicImpl(__FILE__, __LINE__,                         \
                               ::adyna::detail::concat(__VA_ARGS__))

#define ADYNA_FATAL(...)                                                   \
    ::adyna::detail::fatalImpl(__FILE__, __LINE__,                         \
                               ::adyna::detail::concat(__VA_ARGS__))

#define ADYNA_WARN(...)                                                    \
    ::adyna::detail::warnImpl(::adyna::detail::concat(__VA_ARGS__))

/** Check an internal invariant; panics (aborts) on failure. */
#define ADYNA_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ADYNA_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);    \
        }                                                                  \
    } while (false)

#endif // ADYNA_COMMON_LOGGING_HH
