/**
 * @file
 * Implementation of the shared bench/example knobs.
 */

#include "support/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "support/logging.hpp"

namespace eaao::support {

std::optional<std::uint64_t>
parseUint(const char *text, std::uint64_t min, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
        v < min || v > max)
        return std::nullopt;
    return v;
}

namespace {

/**
 * The value of `--flag V` / `--flag=V` in @p argv, or nullptr when the
 * flag is absent. A trailing flag with no value is a fatal user error.
 */
const char *
flagValue(int argc, char **argv, const char *flag)
{
    const std::size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, flag) == 0) {
            if (i + 1 >= argc)
                EAAO_FATAL(flag, " requires a value");
            return argv[i + 1];
        }
        if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=')
            return arg + flag_len + 1;
    }
    return nullptr;
}

/** @p text as a thread or shard count; fatal unless in 1..kMaxGroups. */
unsigned
groupCount(const char *what, const char *text)
{
    const std::optional<std::uint64_t> n = parseUint(text, 1, kMaxGroups);
    if (!n)
        EAAO_FATAL(what, " must be an integer in 1..", kMaxGroups,
                   ", got '", text, "'");
    return static_cast<unsigned>(*n);
}

/**
 * Shared parser for path-valued flags: `--flag <path>` / `--flag=<path>`
 * in argv, then the environment variable, then nullopt.
 */
std::optional<std::string>
pathFromArgs(int argc, char **argv, const char *flag, const char *env_var)
{
    if (const char *value = flagValue(argc, argv, flag)) {
        if (*value == '\0')
            EAAO_FATAL(flag, " requires a path");
        return std::string(value);
    }
    if (const char *env = std::getenv(env_var)) {
        if (*env != '\0')
            return std::string(env);
    }
    return std::nullopt;
}

} // namespace

std::uint32_t
shardsFromArgs(int argc, char **argv, std::uint32_t fallback)
{
    const char *value = flagValue(argc, argv, "--shards");
    return value != nullptr ? groupCount("--shards", value) : fallback;
}

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("EAAO_THREADS"))
        return groupCount("EAAO_THREADS", env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
threadsFromArgs(int argc, char **argv)
{
    const char *value = flagValue(argc, argv, "--threads");
    return value != nullptr ? groupCount("--threads", value)
                            : defaultThreads();
}

std::optional<std::string>
benchJsonFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--bench-json", "EAAO_BENCH_JSON");
}

std::optional<std::string>
traceJsonFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--trace-json", "EAAO_TRACE_JSON");
}

std::optional<std::string>
metricsJsonFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--metrics-json", "EAAO_METRICS_JSON");
}

} // namespace eaao::support
