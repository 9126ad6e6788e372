/**
 * @file
 * The benchmark's workloads. Each one drives the simulator through its
 * public functions; main.cpp times the phases, runs the
 * iterations and turns the recorded spans into metrics.
 *
 * One iteration is setup() (timed as setup_s), measure() (timed as
 * wall_s; returns the simulated events it executed), check() (untimed:
 * simulated statistics against their references), probe() on traced
 * iterations only (layer probes outside the measured phase) and
 * teardown().
 */

#ifndef EAAO_PERFBENCH_WORKLOADS_HPP
#define EAAO_PERFBENCH_WORKLOADS_HPP

#include "measure.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

/** Command-line settings every workload sees. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 4;
    std::string root = ".";   //!< repo checkout (bench/campaigns lives here)
    bool perturb = false;     //!< self-test: corrupt one reference value
    int max_iters = 0;        //!< self-test only; 0 = as many as --seconds allows
};

/** Lane grouping of the sharded workloads (output is the same for any). */
constexpr std::uint32_t kShards = 4;

/** Exact simulated counts of an iteration, by per-layer metric name. */
using Counts = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;
    virtual std::uint64_t measure() = 0;
    virtual void check(Checks &checks) = 0;
    virtual void probe(Checks &) {}
    virtual void teardown() = 0;

    /**
     * The set-up time to report, given the timed setup() call. A
     * workload whose set-up is too short to time once repeats it
     * inside setup() and reports the median.
     */
    virtual double setupSeconds(double timed) const { return timed; }

    /** Exact simulated counts of the last measured iteration. */
    virtual Counts counts() const { return {}; }
};

/** Committed seeds: the only ones the goldens pin. */
constexpr std::uint64_t kOpenLoopSeed = 860911; // loadgen_slo_sweep
constexpr std::uint64_t kForkSeed = 4242;       // macro_campaign --sharded

std::unique_ptr<Workload> makeOpenLoopSlo(const Options &opts);
std::unique_ptr<Workload> makeForkFanout(const Options &opts);
std::unique_ptr<Workload> makePaperSuite(const Options &opts);

/** The paper-figure campaign files of paper_suite, in committed order. */
extern const char *const kPaperFiles[22];

/** Paper files whose trials run on the parallel trial harness. */
bool isHarnessFile(const std::string &name);

/** Fatal set-up error (missing input file): message and exit 2. */
[[noreturn]] void fatal(const std::string &why);

} // namespace perfbench

#endif // EAAO_PERFBENCH_WORKLOADS_HPP
