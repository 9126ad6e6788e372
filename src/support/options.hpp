/**
 * @file
 * Common command-line / environment knobs for benches and examples.
 *
 * Every experiment binary accepts `--threads N` (also `--threads=N`)
 * and honours the `EAAO_THREADS` environment variable; precedence is
 * argv > environment > hardware concurrency. The trial harness
 * guarantees byte-identical output for any thread count, so the knob
 * only changes wall-clock time.
 *
 * `--bench-json <path>` (also `--bench-json=<path>`, or the
 * EAAO_BENCH_JSON environment variable) names a file the bench appends
 * its timing record to — see bench_timer.hpp. Timing never goes to
 * stdout, so bench output stays byte-identical either way.
 *
 * `--trace-json <path>` / EAAO_TRACE_JSON and `--metrics-json <path>`
 * / EAAO_METRICS_JSON name the observability outputs: a Chrome
 * trace_event file and a metrics JSON file (see src/obs/ and
 * docs/observability.md). Like timing, they never touch stdout.
 */

#ifndef EAAO_SUPPORT_OPTIONS_HPP
#define EAAO_SUPPORT_OPTIONS_HPP

#include <cstdint>
#include <optional>
#include <string>

namespace eaao::support {

/**
 * Parse @p text as a decimal integer in [@p min, @p max]: digits only
 * (no sign, whitespace or trailing junk) and no overflow. nullopt when
 * it is not one, for the caller to reject with its own message.
 */
std::optional<std::uint64_t> parseUint(const char *text, std::uint64_t min,
                                       std::uint64_t max);

/** Largest accepted thread or shard count (`--threads`, `--shards`,
 *  EAAO_THREADS); the smallest is 1. */
inline constexpr std::uint64_t kMaxGroups = 4096;

/**
 * Default worker-thread count: EAAO_THREADS if set (an integer in
 * 1..kMaxGroups, anything else is a fatal user error), otherwise
 * std::thread::hardware_concurrency() (min 1).
 */
unsigned defaultThreads();

/**
 * Resolve the worker-thread count for a bench/example binary from
 * `--threads N` / `--threads=N` in @p argv, falling back to
 * defaultThreads(). A missing value or one outside 1..kMaxGroups is a
 * fatal user error.
 */
unsigned threadsFromArgs(int argc, char **argv);

/**
 * Resolve a lane-grouping count from `--shards N` / `--shards=N` in
 * @p argv, falling back to @p fallback when the flag is absent. A
 * missing value or one outside 1..kMaxGroups is a fatal user error.
 */
std::uint32_t shardsFromArgs(int argc, char **argv,
                             std::uint32_t fallback);

/**
 * Resolve the bench-timing JSON path from `--bench-json <path>` /
 * `--bench-json=<path>` in @p argv, falling back to EAAO_BENCH_JSON.
 * nullopt when neither is given (timing disabled); an empty value is
 * a fatal user error.
 */
std::optional<std::string> benchJsonFromArgs(int argc, char **argv);

/**
 * Resolve the Chrome trace output path from `--trace-json <path>` /
 * `--trace-json=<path>`, falling back to EAAO_TRACE_JSON. nullopt when
 * neither is given (tracing disabled); an empty value is a fatal user
 * error.
 */
std::optional<std::string> traceJsonFromArgs(int argc, char **argv);

/**
 * Resolve the metrics output path from `--metrics-json <path>` /
 * `--metrics-json=<path>`, falling back to EAAO_METRICS_JSON. nullopt
 * when neither is given (metrics disabled); an empty value is a fatal
 * user error.
 */
std::optional<std::string> metricsJsonFromArgs(int argc, char **argv);

} // namespace eaao::support

#endif // EAAO_SUPPORT_OPTIONS_HPP
