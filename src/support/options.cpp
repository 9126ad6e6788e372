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

std::uint32_t
shardsFromArgs(int argc, char **argv, std::uint32_t fallback)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--shards") == 0) {
            if (i + 1 >= argc)
                EAAO_FATAL("--shards requires a value");
            value = argv[i + 1];
        } else if (std::strncmp(arg, "--shards=", 9) == 0) {
            value = arg + 9;
        }
        if (value != nullptr) {
            char *end = nullptr;
            const long n = std::strtol(value, &end, 10);
            if (end == nullptr || *end != '\0' || n <= 0)
                EAAO_FATAL("--shards must be a positive integer, got '",
                           value, "'");
            return static_cast<std::uint32_t>(n);
        }
    }
    return fallback;
}

namespace {

/** Parse a strictly positive integer; 0 on failure. */
unsigned
parsePositive(const char *text)
{
    if (text == nullptr || *text == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == nullptr || *end != '\0' || v <= 0)
        return 0;
    return static_cast<unsigned>(v);
}

} // namespace

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("EAAO_THREADS")) {
        const unsigned n = parsePositive(env);
        if (n == 0)
            EAAO_FATAL("EAAO_THREADS must be a positive integer, got '",
                       env, "'");
        return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
threadsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0) {
            if (i + 1 >= argc)
                EAAO_FATAL("--threads requires a value");
            const unsigned n = parsePositive(argv[i + 1]);
            if (n == 0)
                EAAO_FATAL("--threads must be a positive integer, got '",
                           argv[i + 1], "'");
            return n;
        }
        if (std::strncmp(arg, "--threads=", 10) == 0) {
            const unsigned n = parsePositive(arg + 10);
            if (n == 0)
                EAAO_FATAL("--threads must be a positive integer, got '",
                           arg + 10, "'");
            return n;
        }
    }
    return defaultThreads();
}

namespace {

/**
 * Shared parser for path-valued flags: `--flag <path>` / `--flag=<path>`
 * in argv, then the environment variable, then nullopt.
 */
std::optional<std::string>
pathFromArgs(int argc, char **argv, const char *flag, const char *env_var)
{
    const std::size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, flag) == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0')
                EAAO_FATAL(flag, " requires a path");
            return std::string(argv[i + 1]);
        }
        if (std::strncmp(arg, flag, flag_len) == 0 &&
            arg[flag_len] == '=') {
            if (arg[flag_len + 1] == '\0')
                EAAO_FATAL(flag, " requires a path");
            return std::string(arg + flag_len + 1);
        }
    }
    if (const char *env = std::getenv(env_var)) {
        if (*env != '\0')
            return std::string(env);
    }
    return std::nullopt;
}

} // namespace

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
