/**
 * @file
 * Diagnostics: panic/fatal/warn helpers and lightweight logging.
 *
 * Follows the gem5 convention: panic() flags an internal simulator bug
 * (aborts), fatal() flags a user/configuration error (clean exit),
 * warn()/inform() report conditions without stopping the run.
 */

#ifndef EAAO_SUPPORT_LOGGING_HPP
#define EAAO_SUPPORT_LOGGING_HPP

#include <sstream>
#include <string>

namespace eaao {

/** Verbosity levels for runtime logging. */
enum class LogLevel {
    Silent = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Global log threshold; messages above this level are suppressed. */
LogLevel logLevel();

/** Set the global log threshold. */
void setLogLevel(LogLevel level);

/**
 * Sets the global log threshold for one scope and restores the
 * caller's when the scope ends, by return or by throw, so one
 * campaign's quiet mode never leaks into the next in the same process.
 */
class ScopedLogLevel
{
  public:
    explicit ScopedLogLevel(LogLevel level) : saved_(logLevel())
    {
        setLogLevel(level);
    }
    ~ScopedLogLevel() { setLogLevel(saved_); }
    ScopedLogLevel(const ScopedLogLevel &) = delete;
    ScopedLogLevel &operator=(const ScopedLogLevel &) = delete;

  private:
    LogLevel saved_;
};

namespace detail {

/** Emit a message to stderr with a severity tag. Internal use. */
void emit(const char *tag, const std::string &msg);

/** Abort with a panic message (simulator bug). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exit with a fatal message (user error). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Fold a variadic pack into one string via ostringstream. */
template <typename... Args>
std::string
fold(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Report an internal invariant violation and abort. */
#define EAAO_PANIC(...)                                                      \
    ::eaao::detail::panicImpl(__FILE__, __LINE__,                            \
                              ::eaao::detail::fold(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define EAAO_FATAL(...)                                                      \
    ::eaao::detail::fatalImpl(__FILE__, __LINE__,                            \
                              ::eaao::detail::fold(__VA_ARGS__))

/** Assert an invariant; on failure, panic with the condition and message. */
#define EAAO_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            EAAO_PANIC("assertion failed: ", #cond, ": ",                    \
                       ::eaao::detail::fold(__VA_ARGS__));                   \
        }                                                                    \
    } while (0)

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() >= LogLevel::Warn)
        detail::emit("warn", detail::fold(std::forward<Args>(args)...));
}

/** Informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Info)
        detail::emit("info", detail::fold(std::forward<Args>(args)...));
}

} // namespace eaao

#endif // EAAO_SUPPORT_LOGGING_HPP
