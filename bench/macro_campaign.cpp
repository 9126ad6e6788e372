/**
 * @file
 * Campaign-scale macro-benchmark over the orchestrator's hot paths.
 *
 * One trial drives a single data center through the three workloads
 * the incremental indexes were built for:
 *
 *  1. a priming phase (repeated large launches with disconnects in
 *     between) that hammers cold/helper placement,
 *  2. a routing storm (tens of thousands of requests against a large
 *     active pool with concurrency > 1) with periodic account-spend
 *     polls, and
 *  3. a verification pass whose uniform fingerprint keys force the
 *     oversized-group recursive-resolution path.
 *
 * stdout is the same for any `--threads` count. The `--bench-json`
 * record (bench name `macro_campaign`) is compared by CI against the
 * committed BENCH_BASELINE.json: an exact events_processed match (the
 * workload-drift gate) and a loose cross-machine wall-clock bound; see
 * tools/compare_benchmarks.py and docs/performance.md. This mode
 * accepts only `--threads` and `--bench-json`; any other argument
 * exits 2 with one line on stderr.
 *
 * `--sharded` instead drives ONE intra-trial-parallel campaign on the
 * sharded platform (faas::ShardedPlatform, docs/sharding.md): a
 * 100k-host fleet partitioned into 16 lanes, one pinned account per
 * lane, each priming a pool and then absorbing a routing storm —
 * 10M+ requests total by default (`--hosts` / `--requests` resize it,
 * `--prime-rounds` deepens the priming phase). stdout and every total
 * are byte-identical for any `--shards` / `--threads` grouping; CI
 * byte-diffs shards {1,8} x threads {1,8} and gates the grouped wall
 * clock against the single-group record (bench names
 * `macro_campaign_sharded` vs `macro_campaign_sharded_s1`).
 *
 * Checkpoint modes (all imply --sharded; docs/checkpoint.md):
 *
 *  --checkpoint FILE       run the campaign, capture an eaao-snap image
 *                          at the last priming barrier, write it to
 *                          FILE (a `checkpoint: ...` note on stderr),
 *                          and finish normally — stdout is the
 *                          straight-through reference.
 *  --from-checkpoint FILE  restore FILE into a fresh platform and run
 *                          only the storm. stdout is byte-identical to
 *                          the --checkpoint run's for any grouping; a
 *                          truncated/corrupt/newer-format file exits 2
 *                          before anything reaches stdout.
 *  --forked-storms N       prime once, capture in memory, then restore
 *                          + storm N times into ONE reused platform
 *                          (the in-memory fast path; bench name
 *                          `macro_campaign_forked`).
 *  --straight-storms N     run the full campaign N times from scratch
 *                          (bench name `macro_campaign_straight`).
 *
 * --forked-storms and --straight-storms print byte-identical stdout,
 * and CI gates their amortized wall clocks: with priming the dominant
 * cost, N forked storms must be >= 3x faster than N straight runs
 * (tools/compare_benchmarks.py --assert-speedup).
 *
 * Every --sharded flag is validated up front: an unknown flag, a
 * missing value or an out-of-range number exits 2 with one line on
 * stderr, before anything reaches stdout or a bench record.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "channel/covert.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "faas/sharded.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"
#include "stats/summary.hpp"
#include "support/bench_timer.hpp"
#include "support/options.hpp"

namespace {

constexpr std::size_t kTrials = 4;
constexpr std::size_t kServices = 4;
constexpr std::uint32_t kLaunchSize = 500;
constexpr std::size_t kPrimeRounds = 3;
constexpr std::uint32_t kStormPool = 700;
constexpr std::uint32_t kMaxConcurrency = 4;
constexpr std::uint64_t kStormRequests = 60000;
constexpr std::uint64_t kSpendPollEvery = 64;
constexpr std::uint32_t kVerifyInstances = 300;

struct TrialMetrics
{
    std::size_t instances_created = 0;
    std::uint64_t requests_routed = 0;
    std::uint64_t spend_polls = 0;
    double spend_poll_sum_usd = 0.0;
    double final_spend_usd = 0.0;
    std::size_t clusters = 0;
    std::uint64_t group_tests = 0;
};

TrialMetrics
runTrial(std::uint64_t seed)
{
    using namespace eaao;

    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.seed = seed;
    faas::Platform platform(cfg);
    faas::Orchestrator &orch = platform.orchestrator();
    const auto acct = platform.createAccount(0);

    TrialMetrics m;

    // ---- 1. Priming: repeated launches build hotness and exercise
    //         the cold-base and hot-helper placement paths. ----
    std::vector<faas::ServiceId> svcs;
    for (std::size_t s = 0; s < kServices; ++s)
        svcs.push_back(platform.deployService(acct, faas::ExecEnv::Gen1));
    for (std::size_t round = 0; round < kPrimeRounds; ++round) {
        for (const auto svc : svcs) {
            platform.connect(svc, kLaunchSize);
            platform.advance(sim::Duration::minutes(1));
            platform.disconnectAll(svc);
        }
        platform.advance(sim::Duration::minutes(4));
    }

    // ---- 2. Routing storm against a large active pool, with
    //         periodic spend polls. One multi-hour request pins each
    //         pool instance at in_flight >= 1 so none of them idles
    //         out mid-storm: every short request is routed against the
    //         full pool, which is exactly the per-request cost the
    //         routing index removes. ----
    const auto front = svcs.front();
    orch.setMaxConcurrency(front, kMaxConcurrency);
    platform.connect(front, kStormPool);
    for (std::uint32_t p = 0; p < kStormPool; ++p)
        orch.routeRequest(front, sim::Duration::hours(2));
    for (std::uint64_t r = 0; r < kStormRequests; ++r) {
        const double service_s =
            0.05 + 0.01 * static_cast<double>(r % 7);
        orch.routeRequest(front, sim::Duration::fromSecondsF(service_s));
        ++m.requests_routed;
        if (r % kSpendPollEvery == 0) {
            m.spend_poll_sum_usd += platform.accountSpendUsd(acct);
            ++m.spend_polls;
        }
        if (r % 16 == 15)
            platform.advance(sim::Duration::fromSecondsF(0.02));
    }
    platform.advance(sim::Duration::minutes(1));

    // ---- 3. Verification with uniform fingerprint keys: the whole
    //         set lands in one oversized group, driving the recursive
    //         resolution (arena) path end to end. ----
    const auto held = platform.connect(svcs[1], kVerifyInstances);
    const std::vector<std::uint64_t> fp_keys(held.size(), 7);
    channel::RngChannel chan(platform);
    const core::VerifyResult verdict =
        core::verifyScalable(platform, chan, held, fp_keys, {});
    m.clusters = verdict.clusterCount();
    m.group_tests = verdict.group_tests;

    m.instances_created = orch.instanceCount();
    m.final_spend_usd = platform.accountSpendUsd(acct);
    return m;
}

// ---- Sharded campaign (--sharded) ----

constexpr std::uint32_t kShardedHosts = 100'000;
constexpr std::uint64_t kShardedRequests = 10'400'000;
constexpr std::uint32_t kShardedPool = 650;
constexpr std::uint32_t kShardedPrimeRounds = 2;
constexpr std::uint32_t kShardedPrimeLaunch = 300;

/**
 * One lane's script: prime a service hot, pin a concurrency-4 pool
 * with multi-hour requests, then run the storm as a single RouteStorm
 * op (requests are generated inside the window loop, so 10M+ of them
 * never materialize as individual ops). @p prime_traffic > 0 adds a
 * keep-warm burst of that many requests after each priming round's
 * disconnect — they reuse the just-launched warm instances, so they
 * cost priming CPU without minting new instance records.
 */
void
laneScript(std::vector<eaao::faas::ShardOp> &ops,
           eaao::faas::ServiceId svc, std::uint64_t storm_requests,
           std::uint32_t prime_rounds, std::uint64_t prime_traffic)
{
    using namespace eaao;
    using Kind = faas::ShardOp::Kind;

    sim::SimTime t;
    std::uint32_t step = 0;
    const auto push = [&](Kind kind) -> faas::ShardOp & {
        faas::ShardOp op;
        op.kind = kind;
        op.at = t;
        op.step = step++;
        op.service = svc;
        ops.push_back(op);
        return ops.back();
    };

    for (std::uint32_t round = 0; round < prime_rounds; ++round) {
        push(Kind::Connect).a = kShardedPrimeLaunch;
        t = t + sim::Duration::minutes(1);
        push(Kind::Disconnect);
        if (prime_traffic > 0) {
            faas::ShardOp &warm = push(Kind::RouteStorm);
            warm.n = prime_traffic;
            warm.dur = sim::Duration::fromSecondsF(0.05);
            warm.dur_step = sim::Duration::fromSecondsF(0.01);
            warm.dur_mod = 7;
            warm.gap_every = 16;
            warm.gap = sim::Duration::fromSecondsF(0.02);
        }
        t = t + sim::Duration::minutes(4);
    }

    push(Kind::SetConcurrency).a = kMaxConcurrency;
    push(Kind::Connect).a = kShardedPool;
    for (std::uint32_t p = 0; p < kShardedPool; ++p) {
        faas::ShardOp &pin = push(Kind::Route);
        pin.sub = p;
        pin.dur = sim::Duration::hours(2);
    }

    faas::ShardOp &storm = push(Kind::RouteStorm);
    storm.n = storm_requests;
    storm.dur = sim::Duration::fromSecondsF(0.05);
    storm.dur_step = sim::Duration::fromSecondsF(0.01);
    storm.dur_mod = 7;
    storm.gap_every = 16;
    storm.gap = sim::Duration::fromSecondsF(0.02);
    storm.spend_every = kSpendPollEvery;
}

/** Flags of the --sharded family (campaign shape + checkpoint modes). */
struct ShardedArgs
{
    unsigned threads = 1;
    std::uint32_t shards = 1;
    std::uint32_t hosts = kShardedHosts;
    std::uint64_t requests = kShardedRequests;
    std::uint32_t prime_rounds = kShardedPrimeRounds;
    std::uint64_t prime_traffic = 0;
    std::uint64_t forked_storms = 0;
    std::uint64_t straight_storms = 0;
    const char *checkpoint = nullptr;
    const char *from_checkpoint = nullptr;
};

eaao::faas::ShardedConfig
shardedConfig(const ShardedArgs &a)
{
    using namespace eaao;
    faas::ShardedConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = a.hosts;
    cfg.seed = 4242;
    cfg.shards = a.shards;
    cfg.threads = a.threads;
    return cfg;
}

/** Create the per-lane accounts/services and assemble their scripts. */
std::vector<eaao::faas::ShardOp>
buildCampaign(eaao::faas::ShardedPlatform &platform, const ShardedArgs &a,
              eaao::sim::SimTime &horizon)
{
    using namespace eaao;
    const std::uint32_t lanes = platform.laneCount();
    const std::uint64_t per_lane = a.requests / lanes;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const auto acct = platform.createAccount(lane);
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        laneScript(ops, svc, per_lane, a.prime_rounds, a.prime_traffic);
        horizon = ops.back().at +
                  sim::Duration::fromSecondsF(0.02) *
                      static_cast<std::int64_t>(per_lane / 16) +
                  sim::Duration::minutes(10);
    }
    return ops;
}

eaao::faas::ShardedTotals
runStraight(const ShardedArgs &a)
{
    using namespace eaao;
    faas::ShardedPlatform platform(shardedConfig(a));
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = buildCampaign(platform, a, horizon);
    platform.run(std::move(ops), horizon);
    return platform.totals();
}

/**
 * Barrier index of the checkpoint: the last window of the priming
 * phase. Every lane's storm ops sit at prime_rounds * 5 minutes, so
 * capturing (pre-fold; docs/checkpoint.md) at the barrier just before
 * means a restored run re-executes only the storm.
 */
std::uint32_t
captureWindow(const ShardedArgs &a, const eaao::faas::ShardedConfig &cfg)
{
    const std::int64_t prime_ns = eaao::sim::Duration::minutes(5).ns() *
                                  static_cast<std::int64_t>(a.prime_rounds);
    const std::int64_t w = prime_ns / cfg.window.ns();
    return w > 1 ? static_cast<std::uint32_t>(w - 1) : 0;
}

/**
 * Run the campaign with a snapshot captured at the priming barrier.
 * When @p finish is true the run continues to completion (stdout
 * parity with runStraight) and @p totals is filled in; otherwise the
 * platform is abandoned at the capture point — the forks redo the
 * storm from the returned image.
 */
std::vector<std::uint8_t>
primeAndCapture(const ShardedArgs &a, bool finish,
                eaao::faas::ShardedTotals *totals)
{
    using namespace eaao;
    const faas::ShardedConfig cfg = shardedConfig(a);
    faas::ShardedPlatform platform(cfg);
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = buildCampaign(platform, a, horizon);
    const std::uint32_t capture_at = captureWindow(a, cfg);
    std::vector<std::uint8_t> image;
    platform.beginRun(std::move(ops), horizon);
    std::uint32_t window = 0;
    while (platform.running()) {
        platform.advanceWindow();
        if (image.empty() && window >= capture_at) {
            image = snap::Snapshotter::capture(platform);
            if (!finish)
                return image;
        }
        platform.completeWindow();
        ++window;
    }
    if (image.empty()) {
        std::fprintf(stderr,
                     "macro_campaign: run finished before the capture "
                     "barrier (window %u); raise --prime-rounds\n",
                     capture_at);
        std::exit(2);
    }
    if (totals != nullptr)
        *totals = platform.totals();
    return image;
}

// stdout of every sharded mode is built from these two blocks only, so
// --checkpoint, --from-checkpoint and the plain run byte-match for any
// grouping, and --forked-storms N byte-matches --straight-storms N.
void
printShardedHeader(const ShardedArgs &a)
{
    std::printf("=== macro_campaign --sharded: window-barrier lanes "
                "(us-east1, %u hosts, %llu requests) ===\n\n",
                a.hosts, static_cast<unsigned long long>(a.requests));
}

void
printTotals(const eaao::faas::ShardedTotals &t)
{
    std::printf("routed %llu requests across %u windows; created %llu "
                "instances\n",
                static_cast<unsigned long long>(t.routed), t.windows,
                static_cast<unsigned long long>(t.instances));
    std::printf("spend checksum %.2f USD; final spend %.2f USD\n",
                t.spend_checksum, t.final_spend_usd);
    std::printf("events scheduled=%llu processed=%llu cancelled=%llu "
                "pending=%llu\n",
                static_cast<unsigned long long>(t.events_scheduled),
                static_cast<unsigned long long>(t.events_processed),
                static_cast<unsigned long long>(t.events_cancelled),
                static_cast<unsigned long long>(t.events_pending));
}

int
checkpointMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    support::BenchTimer timer("macro_campaign_checkpoint", a.threads,
                              /*seed=*/4242);
    faas::ShardedTotals t;
    const std::vector<std::uint8_t> image =
        primeAndCapture(a, /*finish=*/true, &t);
    std::string error;
    if (!snap::Snapshotter::writeFile(a.checkpoint, image, error)) {
        std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
        return 2;
    }
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    std::fprintf(stderr, "checkpoint: %zu bytes at window %u -> %s\n",
                 image.size(), captureWindow(a, shardedConfig(a)),
                 a.checkpoint);
    printShardedHeader(a);
    printTotals(t);
    return 0;
}

int
fromCheckpointMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    std::vector<std::uint8_t> image;
    std::string error;
    if (!snap::Snapshotter::readFile(a.from_checkpoint, image, error)) {
        std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
        return 2;
    }
    support::BenchTimer timer("macro_campaign_from_checkpoint", a.threads,
                              /*seed=*/4242);
    faas::ShardedTotals t;
    {
        faas::ShardedPlatform platform(shardedConfig(a));
        if (!snap::Snapshotter::restore(image, platform, error)) {
            std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
            return 2;
        }
        platform.resumeRun();
        t = platform.totals();
    }
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    printShardedHeader(a);
    printTotals(t);
    return 0;
}

int
forkedMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    std::vector<faas::ShardedTotals> runs;
    support::BenchTimer timer("macro_campaign_forked", a.threads,
                              /*seed=*/4242);
    {
        const std::vector<std::uint8_t> image =
            primeAndCapture(a, /*finish=*/false, nullptr);
        // One platform absorbs every fork: restore() replaces its state
        // wholesale, so re-restoring into the just-finished platform is
        // the in-memory fast path (no per-fork construction).
        faas::ShardedPlatform platform(shardedConfig(a));
        std::string error;
        // Validate (and checksum) the image once; every fork restores
        // from the parsed reader.
        snap::SnapshotReader reader;
        if (!reader.parse(image, error, a.threads)) {
            std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
            return 2;
        }
        for (std::uint64_t i = 0; i < a.forked_storms; ++i) {
            if (!snap::Snapshotter::restore(reader, platform, error)) {
                std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
                return 2;
            }
            platform.resumeRun();
            runs.push_back(platform.totals());
        }
    }
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    printShardedHeader(a);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::printf("storm %zu:\n", i);
        printTotals(runs[i]);
    }
    return 0;
}

int
straightMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    std::vector<faas::ShardedTotals> runs;
    support::BenchTimer timer("macro_campaign_straight", a.threads,
                              /*seed=*/4242);
    for (std::uint64_t i = 0; i < a.straight_storms; ++i)
        runs.push_back(runStraight(a));
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    printShardedHeader(a);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::printf("storm %zu:\n", i);
        printTotals(runs[i]);
    }
    return 0;
}

/** Reject a --sharded argument with one stderr line and exit 2. */
[[noreturn]] void
badArg(const std::string &what)
{
    std::fprintf(stderr, "macro_campaign: %s\n", what.c_str());
    std::exit(2);
}

/** A decimal integer in [@p min, @p max]: no sign, junk or overflow. */
std::uint64_t
parseCount(std::string_view flag, const char *text, std::uint64_t min,
           std::uint64_t max)
{
    const std::optional<std::uint64_t> v =
        eaao::support::parseUint(text, min, max);
    if (!v) {
        badArg(std::string(flag) + " needs an integer in " +
               std::to_string(min) + ".." + std::to_string(max) +
               ", got '" + text + "'");
    }
    return *v;
}

/**
 * Parse the --sharded family's flags (`--flag value` or
 * `--flag=value`). An unknown flag, a missing value or an out-of-range
 * number exits 2 before anything runs or is recorded. The upper bounds
 * keep the fleet tables, the op script and the storm horizon (int64
 * ns) finite.
 */
ShardedArgs
parseShardedArgs(int argc, char **argv)
{
    constexpr std::uint64_t kMaxGroups = 4096; // --threads and --shards
    constexpr std::uint64_t kMaxHosts = 1'000'000;
    constexpr std::uint64_t kMaxRequests = 1'000'000'000'000;
    constexpr std::uint64_t kMaxRounds = 10'000;
    constexpr std::uint64_t kMaxStorms = 10'000;
    ShardedArgs a;
    a.threads = eaao::support::defaultThreads();
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--sharded")
            continue;
        const std::size_t eq = arg.find('=');
        const std::string_view flag = arg.substr(0, eq);
        const auto value = [&]() -> const char * {
            if (eq != std::string_view::npos)
                return argv[i] + eq + 1;
            if (i + 1 >= argc)
                badArg(std::string(flag) + " requires a value");
            return argv[++i];
        };
        const auto num = [&](std::uint64_t min, std::uint64_t max) {
            return parseCount(flag, value(), min, max);
        };
        const auto path = [&]() {
            const char *p = value();
            if (*p == '\0')
                badArg(std::string(flag) + " requires a path");
            return p;
        };
        if (flag == "--threads")
            a.threads = static_cast<unsigned>(num(1, kMaxGroups));
        else if (flag == "--bench-json")
            path(); // read by support::maybeWriteBenchJson
        else if (flag == "--shards")
            a.shards = static_cast<std::uint32_t>(num(1, kMaxGroups));
        else if (flag == "--hosts")
            a.hosts = static_cast<std::uint32_t>(num(1, kMaxHosts));
        else if (flag == "--requests")
            a.requests = num(0, kMaxRequests);
        else if (flag == "--prime-rounds")
            a.prime_rounds = static_cast<std::uint32_t>(num(1, kMaxRounds));
        else if (flag == "--prime-traffic")
            a.prime_traffic = num(0, kMaxRequests);
        else if (flag == "--forked-storms")
            a.forked_storms = num(1, kMaxStorms);
        else if (flag == "--straight-storms")
            a.straight_storms = num(1, kMaxStorms);
        else if (flag == "--checkpoint")
            a.checkpoint = path();
        else if (flag == "--from-checkpoint")
            a.from_checkpoint = path();
        else
            badArg("unknown argument '" + std::string(arg) + "'");
    }
    return a;
}

int
shardedMain(int argc, char **argv)
{
    using namespace eaao;
    const ShardedArgs a = parseShardedArgs(argc, argv);

    if (a.from_checkpoint != nullptr)
        return fromCheckpointMain(a, argc, argv);
    if (a.checkpoint != nullptr)
        return checkpointMain(a, argc, argv);
    if (a.forked_storms != 0)
        return forkedMain(a, argc, argv);
    if (a.straight_storms != 0)
        return straightMain(a, argc, argv);

    // stdout depends only on (hosts, requests, prime-rounds): the
    // sharded platform's totals are grouping-invariant, so any
    // --shards/--threads pair byte-matches — the property CI's
    // determinism matrix diffs.
    printShardedHeader(a);

    support::BenchTimer timer(a.shards > 1 ? "macro_campaign_sharded"
                                           : "macro_campaign_sharded_s1",
                              a.threads, /*seed=*/4242);
    const faas::ShardedTotals t = runStraight(a);
    support::maybeWriteBenchJson(argc, argv, timer.stop());

    printTotals(t);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace eaao;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sharded") == 0)
            return shardedMain(argc, argv);
    }
    // The default mode takes only --threads and --bench-json, so a
    // stale flag cannot silently run (and record) this workload.
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--threads" || arg == "--bench-json") {
            ++i; // the value; a missing one is a fatal error below
        } else if (!arg.starts_with("--threads=") &&
                   !arg.starts_with("--bench-json=")) {
            std::fprintf(stderr, "macro_campaign: unknown argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    const unsigned threads = support::threadsFromArgs(argc, argv);

    std::printf("=== macro_campaign: placement/routing/verification "
                "hot paths (us-east1, %zu trials) ===\n\n",
                kTrials);

    support::BenchTimer timer("macro_campaign", threads, /*seed=*/4242);
    const std::vector<TrialMetrics> trials = exp::runTrials(
        kTrials, /*seed=*/4242,
        [](exp::TrialContext &trial) { return runTrial(4242 + trial.index); },
        threads);
    support::maybeWriteBenchJson(argc, argv, timer.stop());

    const TrialMetrics &t = trials.front();
    std::printf("trial 0: created %zu instances; routed %llu requests "
                "(%llu spend polls,\nchecksum %.2f USD); final spend "
                "%.2f USD\n",
                t.instances_created,
                static_cast<unsigned long long>(t.requests_routed),
                static_cast<unsigned long long>(t.spend_polls),
                t.spend_poll_sum_usd, t.final_spend_usd);
    std::printf("trial 0: verified %u uniform-fingerprint instances "
                "into %zu clusters\n(%llu group tests)\n\n",
                kVerifyInstances, t.clusters,
                static_cast<unsigned long long>(t.group_tests));

    stats::OnlineStats created, spend, clusters, tests;
    for (const TrialMetrics &r : trials) {
        created.add(static_cast<double>(r.instances_created));
        spend.add(r.final_spend_usd);
        clusters.add(static_cast<double>(r.clusters));
        tests.add(static_cast<double>(r.group_tests));
    }
    std::printf("across %zu trials: instances %.1f (sd %.1f), spend "
                "%.2f USD (sd %.2f),\nclusters %.1f (sd %.1f), group "
                "tests %.1f (sd %.1f)\n",
                kTrials, created.mean(), created.stddev(), spend.mean(),
                spend.stddev(), clusters.mean(), clusters.stddev(),
                tests.mean(), tests.stddev());
    return 0;
}
