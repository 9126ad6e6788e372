/**
 * @file
 * The invariant oracles the scenario fuzzer checks on every scenario.
 *
 * Each oracle compares two executions that the codebase promises are
 * equivalent, or checks a decision or conservation law inside one:
 *
 *  - reference: every route target, placement (cold-base, hot-helper,
 *    cold-overflow, cold-spill) and spend probe the serial runner
 *    drives must equal its brute-force
 *    recomputation from the orchestrator's records
 *    (testkit/reference.hpp), checked inside the primary run. This is
 *    the oracle that catches the indexed decision paths' planted
 *    faults (fault_injection 1/2).
 *  - threads: an exp::runTrials campaign over the scenario must render
 *    identical logs, merged metrics JSON, and Chrome trace JSON for
 *    1 worker and N workers.
 *  - obs: attaching a trace sink + metrics registry must not perturb
 *    any simulation decision (log equality with the unobserved run).
 *  - events: the kernel conserves events (scheduled = processed +
 *    cancelled + pending) and generation-tagged EventIds refuse stale
 *    handles after slot reuse.
 *  - verify: core::verifyScalable's clustering is invariant under a
 *    permutation of the participating instances.
 *  - shards: the sharded platform (faas::ShardedPlatform) must render
 *    byte-identical canonical logs, merged metrics JSON, and Chrome
 *    trace JSON for every (shards, threads) grouping of its fixed
 *    lanes — shards in {1, 2, shard_arm} crossed with threads in
 *    {1, N}. This is the oracle that catches the cross-lane window
 *    protocol's planted faults (fault_injection 3/4).
 *  - snapshot: checkpointing the sharded run at a window barrier
 *    (snap::Snapshotter) and restoring into a fresh platform — at the
 *    same lane grouping and at a different one — must finish with a
 *    canonical log, merged metrics JSON, and Chrome trace JSON
 *    byte-identical to the uninterrupted run. This is the oracle that
 *    catches the checkpoint path's planted fault (fault_injection 5).
 *  - prefix (time-travel scenarios): restoring the primed barrier
 *    image into a fresh platform at any (shards, threads) grouping
 *    and rendering it *without resuming* must reproduce the capture
 *    platform's log, merged metrics JSON, and Chrome trace JSON byte
 *    for byte — every fork agrees on everything up to the barrier.
 *  - fork (time-travel scenarios): replaying the same suffix from the
 *    image twice must be byte-identical (fork-determinism), at every
 *    grouping, and must equal a straight run of the composed scenario
 *    (the differential that catches the fork-path planted fault,
 *    fault_injection 6).
 */

#ifndef EAAO_TESTKIT_INVARIANTS_HPP
#define EAAO_TESTKIT_INVARIANTS_HPP

#include <string>
#include <vector>

#include "testkit/runner.hpp"
#include "testkit/scenario.hpp"

namespace eaao::testkit {

/** One oracle failure. */
struct Violation
{
    std::string oracle; //!< "reference", "threads", "obs", "events",
                        //!< "verify", "shards", "snapshot", "prefix",
                        //!< "fork"
    std::string detail; //!< first point of divergence
};

/** Which oracles to run, and how hard. */
struct InvariantOptions
{
    unsigned threads = 4;       //!< worker count of the N-thread arm
    std::size_t thread_trials = 3; //!< trials per runTrials campaign

    bool check_reference = true;
    bool check_threads = true;
    bool check_obs = true;
    bool check_events = true;
    bool check_shards = true;
    bool check_snapshot = true;

    /** Fork oracles; engaged only on `[timetravel]` scenarios. */
    bool check_timetravel = true;

    /** Largest shard count of the shard-equality arms ({1, 2, this}).
     *  tools/fuzz_scenarios --shards overrides it. */
    std::uint32_t shard_arm = 5;

    /**
     * The verify-permutation oracle costs a covert-channel campaign per
     * scenario; the fuzz driver samples it (--verify-every) instead of
     * paying it everywhere.
     */
    bool check_verify = false;
};

/**
 * Run the selected oracles on @p scenario.
 * @return All violations found (empty = scenario holds).
 */
std::vector<Violation> checkInvariants(const Scenario &scenario,
                                       const InvariantOptions &opts = {});

/**
 * A primed time-travel prefix plus its barrier-state observability
 * renders — the reusable half of the fork oracles. The fuzz driver
 * primes once per explored image and shares it across every fork
 * (and the suffix-only shrinker shares it across every candidate,
 * since suffix edits never touch the prefix the image hashes).
 */
struct TimeTravelPrime
{
    BarrierPrime prime;
    std::string metrics; //!< merged metrics JSON at the barrier
    std::string trace;   //!< Chrome trace JSON at the barrier
};

/**
 * Run @p scenario's prefix to its barrier once and capture image +
 * barrier renders. False (with a one-line reason) when the scenario
 * has no `[timetravel]` metadata or the barrier is unreachable.
 */
bool primeTimeTravel(const Scenario &scenario, const InvariantOptions &opts,
                     TimeTravelPrime &out, std::string &error);

/**
 * The time-travel fork oracles (prefix-consistency, fork-determinism,
 * and the fork-vs-straight differential) on a `[timetravel]`
 * scenario. Pass @p primed to reuse a prime across forks or shrink
 * candidates; null primes internally. checkInvariants runs this
 * automatically for time-travel scenarios.
 */
std::vector<Violation>
checkTimeTravelForks(const Scenario &scenario, const InvariantOptions &opts,
                     const TimeTravelPrime *primed = nullptr);

} // namespace eaao::testkit

#endif // EAAO_TESTKIT_INVARIANTS_HPP
