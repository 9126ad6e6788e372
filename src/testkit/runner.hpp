/**
 * @file
 * Scenario runner: executes a Scenario against a live faas::Platform
 * and folds everything observable into a canonical text log.
 *
 * The log (ScenarioLog::render) is the unit the invariant oracles
 * compare: it captures every placement decision with its reason, every
 * routed request's serving instance, every restart mapping, spend
 * probes, final per-account spend, and the event-kernel conservation
 * counters. Two runs whose logs are byte-identical made the same
 * decisions at the same virtual times.
 */

#ifndef EAAO_TESTKIT_RUNNER_HPP
#define EAAO_TESTKIT_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faas/trace.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sim/time.hpp"
#include "snap/format.hpp"
#include "testkit/scenario.hpp"

namespace eaao::testkit {

/** Knobs of one scenario execution. */
struct RunOptions
{
    /** Observability handle wired into PlatformConfig. */
    obs::Observer obs;

    /** Replace Scenario::seed; 0 keeps it. */
    std::uint64_t seed_override = 0;

    /**
     * Cumulative orchestrator counters sampled after one executed
     * step — the data the campaign trigger engine's expressions
     * (`rate(orch.placements, 60)` etc.) aggregate over.
     */
    struct StepSample
    {
        std::uint32_t step = 0;       //!< step index just executed
        double t_s = 0.0;             //!< virtual time, seconds
        std::uint64_t instances = 0;  //!< live instance count
        std::uint64_t placements = 0; //!< placement-trace events so far
        std::uint64_t routed = 0;     //!< requests routed so far
    };

    /** Called after every step when set; null for normal runs. */
    std::function<void(const StepSample &)> step_hook;
};

/** Everything a scenario run exposes for comparison. */
struct ScenarioLog
{
    std::vector<faas::PlacementEvent> trace;

    /** "step=<i> inst=<id> host=<h>" per routed request. */
    std::vector<std::string> routed;

    /** "step=<i> old=<id> new=<id>" per restart. */
    std::vector<std::string> restarted;

    /** "step=<i> acct=<a> usd=<x>" per SpendProbe line. */
    std::vector<std::string> spend;

    std::vector<double> final_spend_usd; //!< per account, after drain
    std::uint64_t instance_count = 0;

    /**
     * Open-loop SLO accounting (Orchestrator::sloStats), rendered only
     * when at least one request went through admitRequest so scenarios
     * without OpenLoop steps keep their historical log bytes.
     */
    std::string slo;

    std::uint64_t events_scheduled = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t events_cancelled = 0;
    std::uint64_t events_pending = 0;

    /** First runner-driven decision that disagreed with its
     *  brute-force reference (ReferenceAudit::mismatch); empty when all
     *  agreed. Not part of render(). */
    std::string reference_mismatch;

    /** Canonical text form; doubles rendered with %.17g. */
    std::string render() const;
};

/**
 * Execute @p scenario. Steps that reference terminated instances or
 * hit platform clamps are made total deterministically (documented per
 * step in the implementation), so every generated scenario is
 * runnable. Ends with a 20-minute drain so all reaps settle. Every
 * decision the runner drives is audited against its brute-force
 * reference as it is made (ScenarioLog::reference_mismatch).
 */
ScenarioLog runScenario(const Scenario &scenario, const RunOptions &opts = {});

/** Knobs of one sharded scenario execution (faas::ShardedPlatform). */
struct ShardedRunOptions
{
    std::uint32_t shards = 1;  //!< worker groups over the fixed lanes
    unsigned threads = 1;      //!< pool threads driving the groups

    /** Per-lane recording slots; prepared to lane count when set. */
    obs::TrialSet *obs = nullptr;

    /** Replace Scenario::seed; 0 keeps it. */
    std::uint64_t seed_override = 0;

    /**
     * When snapshot_out is non-null, capture an eaao-snap image at the
     * first window barrier with index >= snapshot_at_window (pre-fold
     * state; see docs/checkpoint.md) and keep running to completion.
     * If the run finishes earlier, snapshot_out is left empty.
     */
    std::uint32_t snapshot_at_window = ~0u;
    std::vector<std::uint8_t> *snapshot_out = nullptr;
};

/**
 * Execute @p scenario on the sharded platform: the step script is
 * compiled into a timestamped op list (Burst pre-expanded at the
 * serial runner's 2 ms spacing, Advance folded into timestamps) and
 * run through the window loop with a 20-minute drain horizon.
 *
 * @return The platform's canonical log (ShardedPlatform::renderLog).
 *         Byte-identical across every (shards, threads) — the
 *         shard-equality oracle's comparison unit. NOT comparable to
 *         runScenario's log: lanes draw reap delays from per-lane
 *         streams, so the sharded engine is a distinct deterministic
 *         universe, self-consistent across partitionings.
 */
std::string runScenarioSharded(const Scenario &scenario,
                               const ShardedRunOptions &opts = {});

/**
 * Resume a sharded scenario run from @p image (captured by
 * runScenarioSharded with snapshot_out set, under the same scenario
 * and seed override; shards/threads may differ). On success
 * @p log receives the completed run's canonical log — byte-identical
 * to the uninterrupted run's. On restore failure returns false with a
 * one-line reason in @p error.
 */
bool resumeScenarioSharded(const Scenario &scenario,
                           const ShardedRunOptions &opts,
                           const std::vector<std::uint8_t> &image,
                           std::string &log, std::string &error);

/**
 * One primed time-travel prefix: everything a fork needs to branch
 * from the captured barrier without re-running the prefix. The image
 * is parsed once into `reader` (the `--forked-storms` fast path —
 * SectionViews point into `image`, so don't copy or mutate the
 * struct after priming) and the compile cursor/step label pick up
 * exactly where a straight run of the composed scenario would stand.
 */
struct BarrierPrime
{
    std::vector<std::uint8_t> image;  //!< eaao-snap bytes, pre-fold
    snap::SnapshotReader reader;      //!< parsed view of `image`
    std::string prefix_log;           //!< renderLog() at the barrier
    sim::SimTime fork_origin;         //!< suffix compile start time
    std::uint32_t suffix_label = 0;   //!< first suffix step label
};

/**
 * Execute @p scenario's time-travel *prefix* (steps [0,
 * tt_prefix_steps)) up to window barrier tt_barrier and capture the
 * pre-fold image — the expensive prime done once per explored image.
 * The scenario must carry `[timetravel]` metadata. Returns false
 * (with a one-line reason) when the prefix run ends before the
 * barrier is reached; the platform is abandoned either way.
 */
bool runScenarioToBarrier(const Scenario &scenario,
                          const ShardedRunOptions &opts, BarrierPrime &out,
                          std::string &error);

/**
 * Restore @p prime's image into a fresh platform at @p opts's
 * grouping and render its log *without resuming* — the
 * prefix-consistency oracle's probe: the result must be
 * byte-identical to prime.prefix_log at every (shards, threads).
 */
bool restoreScenarioBarrier(const Scenario &scenario,
                            const ShardedRunOptions &opts,
                            const BarrierPrime &prime, std::string &log,
                            std::string &error);

/**
 * The fork arm: restore @p prime's image, append @p scenario's
 * suffix (steps [tt_prefix_steps, end) compiled from
 * prime.fork_origin) via ShardedPlatform::appendOps, and resume to
 * completion. On success @p log is the completed run's canonical log
 * — byte-identical to runScenarioSharded of the same composed
 * scenario unless a restore-path fault (e.g. planted fault 6)
 * perturbs the forked run.
 */
bool runScenarioForked(const Scenario &scenario,
                       const ShardedRunOptions &opts,
                       const BarrierPrime &prime, std::string &log,
                       std::string &error);

} // namespace eaao::testkit

#endif // EAAO_TESTKIT_RUNNER_HPP
