/**
 * @file
 * Implementation of the invariant oracles.
 */

#include "testkit/invariants.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "obs/export.hpp"
#include "sim/event_queue.hpp"
#include "stats/clustering.hpp"
#include "testkit/runner.hpp"

namespace eaao::testkit {

namespace {

/** First line where @p a and @p b diverge, quoted for the report. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a);
    std::istringstream sb(b);
    std::string la;
    std::string lb;
    std::size_t line = 0;
    while (true) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "identical"; // only sizes differed upstream
        if (!ga || !gb || la != lb) {
            std::ostringstream out;
            out << "line " << line << ": '" << (ga ? la : "<eof>") << "' vs '"
                << (gb ? lb : "<eof>") << "'";
            return out.str();
        }
    }
}

void
checkObs(const Scenario &sc, const std::string &plain,
         std::vector<Violation> &out)
{
    obs::TrialObs slot;
    RunOptions ro;
    ro.obs = slot.observer();
    const std::string observed = runScenario(sc, ro).render();
    if (observed != plain)
        out.push_back({"obs", firstDiff(plain, observed)});
}

void
checkThreads(const Scenario &sc, const InvariantOptions &opts,
             std::vector<Violation> &out)
{
    const auto body = [&sc](exp::TrialContext &ctx) -> std::string {
        RunOptions ro;
        ro.obs = ctx.obs;
        ro.seed_override = ctx.trialSeed();
        return runScenario(sc, ro).render();
    };

    const auto campaign = [&](unsigned threads, obs::TrialSet &set) {
        return exp::runTrials(opts.thread_trials, sc.seed, body, threads,
                              &set);
    };

    obs::TrialSet set1(true);
    obs::TrialSet setN(true);
    const std::vector<std::string> logs1 = campaign(1, set1);
    const std::vector<std::string> logsN = campaign(opts.threads, setN);

    for (std::size_t i = 0; i < logs1.size(); ++i) {
        if (logs1[i] != logsN[i]) {
            std::ostringstream detail;
            detail << "trial " << i << " log: "
                   << firstDiff(logs1[i], logsN[i]);
            out.push_back({"threads", detail.str()});
            return;
        }
    }

    const auto mergedMetrics = [](obs::TrialSet &set) {
        std::vector<obs::MetricsRegistry> parts;
        parts.reserve(set.slots().size());
        for (obs::TrialObs &slot : set.slots())
            parts.push_back(slot.metrics);
        return obs::mergeRegistries(parts).toJson();
    };
    const std::string m1 = mergedMetrics(set1);
    const std::string mN = mergedMetrics(setN);
    if (m1 != mN) {
        out.push_back({"threads", "merged metrics: " + firstDiff(m1, mN)});
        return;
    }

    const auto traceJson = [](const obs::TrialSet &set) {
        std::vector<const obs::TraceSink *> sinks;
        sinks.reserve(set.slots().size());
        for (const obs::TrialObs &slot : set.slots())
            sinks.push_back(&slot.trace);
        return obs::toChromeTraceJson(sinks);
    };
    const std::string t1 = traceJson(set1);
    const std::string tN = traceJson(setN);
    if (t1 != tN)
        out.push_back({"threads", "chrome trace: " + firstDiff(t1, tN)});
}

void
checkEvents(const ScenarioLog &log, std::vector<Violation> &out)
{
    if (log.events_scheduled !=
        log.events_processed + log.events_cancelled + log.events_pending) {
        std::ostringstream detail;
        detail << "conservation: scheduled=" << log.events_scheduled
               << " != processed=" << log.events_processed
               << " + cancelled=" << log.events_cancelled
               << " + pending=" << log.events_pending;
        out.push_back({"events", detail.str()});
    }

    // Generation-tag probes on a standalone queue: stale handles must
    // be refused in every slot-reuse order.
    sim::EventQueue eq;
    int fired_a = 0;
    int fired_b = 0;
    const sim::EventId a =
        eq.scheduleAfter(sim::Duration::millis(1), [&] { ++fired_a; });
    const sim::EventId b =
        eq.scheduleAfter(sim::Duration::millis(2), [&] { ++fired_b; });
    if (!eq.cancel(a))
        out.push_back({"events", "cancel of a pending event refused"});
    if (eq.cancel(a))
        out.push_back({"events", "double-cancel accepted"});
    // a's slot is free again; c reuses it with a bumped generation.
    int fired_c = 0;
    const sim::EventId c =
        eq.scheduleAfter(sim::Duration::millis(3), [&] { ++fired_c; });
    if (eq.cancel(a))
        out.push_back({"events", "stale handle accepted after slot reuse"});
    eq.advance(sim::Duration::millis(10));
    if (fired_a != 0)
        out.push_back({"events", "cancelled event fired"});
    if (fired_b != 1 || fired_c != 1)
        out.push_back({"events", "live event lost after cancellations"});
    if (eq.cancel(b))
        out.push_back({"events", "cancel-after-fire accepted"});
    if (eq.cancel(c))
        out.push_back({"events", "cancel-after-fire accepted (reused slot)"});
    if (eq.pending() != 0)
        out.push_back({"events", "probe queue did not drain"});
}

/** Merged metrics JSON of a TrialSet, slot order (shared helper). */
std::string
mergedSetMetrics(const obs::TrialSet &set)
{
    std::vector<obs::MetricsRegistry> parts;
    parts.reserve(set.slots().size());
    for (const obs::TrialObs &slot : set.slots())
        parts.push_back(slot.metrics);
    return obs::mergeRegistries(parts).toJson();
}

/** Chrome trace JSON of a TrialSet, slot order (shared helper). */
std::string
setTraceJson(const obs::TrialSet &set)
{
    std::vector<const obs::TraceSink *> sinks;
    sinks.reserve(set.slots().size());
    for (const obs::TrialObs &slot : set.slots())
        sinks.push_back(&slot.trace);
    return obs::toChromeTraceJson(sinks);
}

/**
 * Shard-count byte-equality: one sharded execution per (shards,
 * threads) arm, all compared — log, merged metrics, Chrome trace —
 * against the (1, 1) baseline. Lane count is a fixed platform
 * property, so every arm runs the same lanes; only the grouping onto
 * workers differs, and nothing may depend on it.
 */
void
checkShards(const Scenario &sc, const InvariantOptions &opts,
            std::vector<Violation> &out)
{
    struct Arm
    {
        std::uint32_t shards;
        unsigned threads;
    };
    const Arm arms[] = {
        {1, 1},
        {2, 1},
        {opts.shard_arm, 1},
        {2, opts.threads},
        {opts.shard_arm, opts.threads},
    };

    const auto mergedMetrics = [](obs::TrialSet &set) {
        return mergedSetMetrics(set);
    };
    const auto traceJson = [](const obs::TrialSet &set) {
        return setTraceJson(set);
    };

    std::string base_log;
    std::string base_metrics;
    std::string base_trace;
    for (std::size_t i = 0; i < std::size(arms); ++i) {
        obs::TrialSet set(true);
        ShardedRunOptions ro;
        ro.shards = arms[i].shards;
        ro.threads = arms[i].threads;
        ro.obs = &set;
        const std::string log = runScenarioSharded(sc, ro);
        const std::string metrics = mergedMetrics(set);
        const std::string trace = traceJson(set);
        if (i == 0) {
            base_log = log;
            base_metrics = metrics;
            base_trace = trace;
            continue;
        }
        const auto report = [&](const char *what, const std::string &a,
                                const std::string &b) {
            std::ostringstream detail;
            detail << "shards=" << arms[i].shards
                   << " threads=" << arms[i].threads << " " << what << ": "
                   << firstDiff(a, b);
            out.push_back({"shards", detail.str()});
        };
        if (log != base_log) {
            report("log", base_log, log);
            return;
        }
        if (metrics != base_metrics) {
            report("merged metrics", base_metrics, metrics);
            return;
        }
        if (trace != base_trace) {
            report("chrome trace", base_trace, trace);
            return;
        }
    }
}

/**
 * Checkpoint/restore byte-equality: run the sharded scenario straight
 * through at (1, 1) for the baseline, then re-run it capturing a
 * snapshot at a window barrier (the first barrier, and a mid-run one
 * when the run is long enough) and finish each captured run from the
 * snapshot — once at the same (1, 1) grouping and once at (2, N),
 * since lane grouping is excluded from the snapshot's config
 * fingerprint. Log, merged metrics JSON, and Chrome trace JSON must
 * all match the baseline byte-for-byte. Catches planted fault 5 (the
 * restore path zeroes the vcpus values of one lane's delta).
 */
void
checkSnapshot(const Scenario &sc, const InvariantOptions &opts,
              std::vector<Violation> &out)
{
    obs::TrialSet base_set(true);
    ShardedRunOptions base_ro;
    base_ro.obs = &base_set;
    const std::string base_log = runScenarioSharded(sc, base_ro);
    const std::string base_metrics = mergedSetMetrics(base_set);
    const std::string base_trace = setTraceJson(base_set);

    unsigned lanes = 0, windows = 0;
    long long window_ns = 0;
    if (std::sscanf(base_log.c_str(),
                    "sharded lanes=%u window_ns=%lld windows=%u", &lanes,
                    &window_ns, &windows) != 3) {
        out.push_back({"snapshot", "cannot parse window count from the "
                                   "sharded log header"});
        return;
    }

    std::vector<std::uint32_t> capture_points = {0};
    if (windows / 2 != 0)
        capture_points.push_back(windows / 2);

    for (const std::uint32_t at : capture_points) {
        std::vector<std::uint8_t> image;
        obs::TrialSet cap_set(true);
        ShardedRunOptions cap_ro;
        cap_ro.obs = &cap_set;
        cap_ro.snapshot_at_window = at;
        cap_ro.snapshot_out = &image;
        const std::string cap_log = runScenarioSharded(sc, cap_ro);
        if (cap_log != base_log) {
            out.push_back({"snapshot",
                           "capture stepping perturbed the run: " +
                               firstDiff(base_log, cap_log)});
            return;
        }
        if (image.empty()) {
            std::ostringstream detail;
            detail << "no snapshot captured at window " << at << " (of "
                   << windows << ")";
            out.push_back({"snapshot", detail.str()});
            return;
        }

        struct Arm
        {
            std::uint32_t shards;
            unsigned threads;
        };
        const Arm arms[] = {{1, 1}, {2, opts.threads}};
        for (const Arm &arm : arms) {
            obs::TrialSet res_set(true);
            ShardedRunOptions res_ro;
            res_ro.shards = arm.shards;
            res_ro.threads = arm.threads;
            res_ro.obs = &res_set;
            std::string log, error;
            const auto report = [&](const char *what,
                                    const std::string &a,
                                    const std::string &b) {
                std::ostringstream detail;
                detail << "window " << at << " restore (shards="
                       << arm.shards << " threads=" << arm.threads << ") "
                       << what << ": " << firstDiff(a, b);
                out.push_back({"snapshot", detail.str()});
            };
            if (!resumeScenarioSharded(sc, res_ro, image, log, error)) {
                std::ostringstream detail;
                detail << "window " << at << " restore failed: " << error;
                out.push_back({"snapshot", detail.str()});
                return;
            }
            if (log != base_log) {
                report("log", base_log, log);
                return;
            }
            const std::string metrics = mergedSetMetrics(res_set);
            if (metrics != base_metrics) {
                report("merged metrics", base_metrics, metrics);
                return;
            }
            const std::string trace = setTraceJson(res_set);
            if (trace != base_trace) {
                report("chrome trace", base_trace, trace);
                return;
            }
        }
    }
}

/** Platform config oracle E uses: scenario shape, fresh tenant. */
faas::PlatformConfig
verifyPlatformConfig(const Scenario &sc)
{
    faas::PlatformConfig cfg;
    if (sc.profile == 1)
        cfg.profile = faas::DataCenterProfile::usCentral1();
    else if (sc.profile == 2)
        cfg.profile = faas::DataCenterProfile::usWest1();
    if (sc.host_count != 0)
        cfg.profile.host_count = sc.host_count;
    cfg.orchestrator.isolate_accounts = sc.isolate_accounts;
    cfg.seed = sc.seed;
    return cfg;
}

void
checkVerify(const Scenario &sc, std::vector<Violation> &out)
{
    constexpr std::uint32_t kInstances = 64;

    const auto launchLabels =
        [&](const std::vector<std::size_t> &order) -> std::vector<std::uint64_t> {
        faas::Platform platform(verifyPlatformConfig(sc));
        const faas::AccountId acct = platform.createAccount({}, 1000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        core::LaunchOptions lo;
        lo.instances = kInstances;
        lo.hold = sim::Duration::seconds(5);
        lo.disconnect_after = false;
        const core::LaunchObservation obs =
            core::launchAndObserve(platform, svc, lo);

        std::vector<faas::InstanceId> ids;
        std::vector<std::uint64_t> fp;
        std::vector<std::uint64_t> cls;
        ids.reserve(order.size());
        for (const std::size_t i : order) {
            ids.push_back(obs.ids[i]);
            fp.push_back(obs.fp_keys[i]);
            cls.push_back(obs.class_keys[i]);
        }
        channel::RngChannel chan(platform);
        const core::VerifyResult res =
            core::verifyScalable(platform, chan, ids, fp, cls);

        // Undo the permutation so labels are comparable slot-by-slot.
        std::vector<std::uint64_t> labels(order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            labels[order[i]] = res.cluster_of[i];
        return labels;
    };

    std::vector<std::size_t> identity(kInstances);
    for (std::size_t i = 0; i < identity.size(); ++i)
        identity[i] = i;
    std::vector<std::size_t> permuted = identity;
    sim::Rng perm_rng = sim::Rng(sc.seed).fork(0xE5);
    for (std::size_t i = permuted.size(); i > 1; --i)
        std::swap(permuted[i - 1], permuted[perm_rng.uniformInt(i)]);

    const std::vector<std::uint64_t> base = launchLabels(identity);
    const std::vector<std::uint64_t> shuffled = launchLabels(permuted);

    const stats::PairConfusion cmp = stats::comparePairs(shuffled, base);
    if (cmp.fp != 0 || cmp.fn != 0) {
        std::ostringstream detail;
        detail << "clustering changed under party permutation: fp=" << cmp.fp
               << " fn=" << cmp.fn << " (of "
               << (cmp.tp + cmp.fp + cmp.tn + cmp.fn) << " pairs)";
        out.push_back({"verify", detail.str()});
    }
}

} // namespace

std::vector<Violation>
checkInvariants(const Scenario &scenario, const InvariantOptions &opts)
{
    std::vector<Violation> out;

    const ScenarioLog primary = runScenario(scenario, {});
    const std::string primary_log = primary.render();

    if (opts.check_events)
        checkEvents(primary, out);
    if (opts.check_reference && !primary.reference_mismatch.empty())
        out.push_back({"reference", primary.reference_mismatch});
    if (opts.check_obs)
        checkObs(scenario, primary_log, out);
    if (opts.check_threads)
        checkThreads(scenario, opts, out);
    if (opts.check_shards)
        checkShards(scenario, opts, out);
    if (opts.check_snapshot)
        checkSnapshot(scenario, opts, out);
    if (opts.check_timetravel && scenario.has_timetravel) {
        const std::vector<Violation> tt = checkTimeTravelForks(scenario, opts);
        out.insert(out.end(), tt.begin(), tt.end());
    }
    if (opts.check_verify)
        checkVerify(scenario, out);
    return out;
}

bool
primeTimeTravel(const Scenario &scenario,
                const InvariantOptions & /*opts*/, TimeTravelPrime &out,
                std::string &error)
{
    // The prime is the (1, 1) canonical universe: its barrier renders
    // are what every prefix arm must reproduce, whatever its grouping.
    obs::TrialSet set(true);
    ShardedRunOptions ro;
    ro.obs = &set;
    if (!runScenarioToBarrier(scenario, ro, out.prime, error))
        return false;
    out.metrics = mergedSetMetrics(set);
    out.trace = setTraceJson(set);
    return true;
}

std::vector<Violation>
checkTimeTravelForks(const Scenario &scenario, const InvariantOptions &opts,
                     const TimeTravelPrime *primed)
{
    std::vector<Violation> out;

    TimeTravelPrime local;
    if (primed == nullptr) {
        std::string error;
        if (!primeTimeTravel(scenario, opts, local, error)) {
            out.push_back({"prefix", "prime failed: " + error});
            return out;
        }
        primed = &local;
    }

    struct Arm
    {
        std::uint32_t shards;
        unsigned threads;
    };

    // Prefix-consistency: restoring the image *without resuming* must
    // reproduce the capture platform's barrier log, merged metrics
    // JSON, and Chrome trace JSON at every (shards, threads).
    const Arm prefix_arms[] = {
        {1, 1},
        {2, 1},
        {opts.shard_arm, opts.threads},
    };
    for (const Arm &arm : prefix_arms) {
        obs::TrialSet set(true);
        ShardedRunOptions ro;
        ro.shards = arm.shards;
        ro.threads = arm.threads;
        ro.obs = &set;
        std::string log;
        std::string error;
        if (!restoreScenarioBarrier(scenario, ro, primed->prime, log,
                                    error)) {
            std::ostringstream detail;
            detail << "restore (shards=" << arm.shards
                   << " threads=" << arm.threads << ") failed: " << error;
            out.push_back({"prefix", detail.str()});
            return out;
        }
        const auto report = [&](const char *what, const std::string &a,
                                const std::string &b) {
            std::ostringstream detail;
            detail << "shards=" << arm.shards << " threads=" << arm.threads
                   << " " << what << ": " << firstDiff(a, b);
            out.push_back({"prefix", detail.str()});
        };
        if (log != primed->prime.prefix_log) {
            report("log", primed->prime.prefix_log, log);
            return out;
        }
        const std::string metrics = mergedSetMetrics(set);
        if (metrics != primed->metrics) {
            report("merged metrics", primed->metrics, metrics);
            return out;
        }
        const std::string trace = setTraceJson(set);
        if (trace != primed->trace) {
            report("chrome trace", primed->trace, trace);
            return out;
        }
    }

    // The differential baseline: a straight run of the composed
    // scenario, which never goes near the fork path (compileScript
    // places the suffix at the same fork wall the fork arm uses, so
    // both arms execute the same op list from the same virtual times).
    obs::TrialSet straight_set(true);
    ShardedRunOptions straight_ro;
    straight_ro.obs = &straight_set;
    const std::string straight_log =
        runScenarioSharded(scenario, straight_ro);
    const std::string straight_metrics = mergedSetMetrics(straight_set);
    const std::string straight_trace = setTraceJson(straight_set);

    // Fork arms: (1, 1) twice — fork-determinism — plus the big
    // grouping; every arm must equal the straight run byte for byte.
    // This is the only oracle that executes ShardedPlatform::appendOps,
    // so it alone can catch planted fault 6.
    const Arm fork_arms[] = {
        {1, 1},
        {1, 1},
        {opts.shard_arm, opts.threads},
    };
    std::string first_fork_log;
    for (std::size_t i = 0; i < std::size(fork_arms); ++i) {
        const Arm &arm = fork_arms[i];
        obs::TrialSet set(true);
        ShardedRunOptions ro;
        ro.shards = arm.shards;
        ro.threads = arm.threads;
        ro.obs = &set;
        std::string log;
        std::string error;
        if (!runScenarioForked(scenario, ro, primed->prime, log, error)) {
            std::ostringstream detail;
            detail << "fork (shards=" << arm.shards
                   << " threads=" << arm.threads << ") failed: " << error;
            out.push_back({"fork", detail.str()});
            return out;
        }
        if (i == 0) {
            first_fork_log = log;
        } else if (i == 1 && log != first_fork_log) {
            out.push_back(
                {"fork", "fork-determinism: the same suffix replayed "
                         "twice from the image diverged: " +
                             firstDiff(first_fork_log, log)});
            return out;
        }
        const auto report = [&](const char *what, const std::string &a,
                                const std::string &b) {
            std::ostringstream detail;
            detail << "shards=" << arm.shards << " threads=" << arm.threads
                   << " forked vs straight " << what << ": "
                   << firstDiff(a, b);
            out.push_back({"fork", detail.str()});
        };
        if (log != straight_log) {
            report("log", straight_log, log);
            return out;
        }
        const std::string metrics = mergedSetMetrics(set);
        if (metrics != straight_metrics) {
            report("merged metrics", straight_metrics, metrics);
            return out;
        }
        const std::string trace = setTraceJson(set);
        if (trace != straight_trace) {
            report("chrome trace", straight_trace, trace);
            return out;
        }
    }
    return out;
}

} // namespace eaao::testkit
