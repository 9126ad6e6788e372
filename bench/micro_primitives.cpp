/**
 * @file
 * Micro-benchmarks (google-benchmark) for the library's primitives:
 * the event kernel (schedule/step, schedule+cancel churn, an
 * orchestrator-shaped mix, an arrival storm),
 * fingerprint readings, quantization, covert-channel group tests,
 * scalable-vs-pairwise verification scaling, orchestrator placement
 * and routing throughput, and snapshot capture/restore.
 */

#include <benchmark/benchmark.h>

#include "channel/covert.hpp"
#include "core/fingerprint.hpp"
#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "faas/platform.hpp"
#include "faas/sharded.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"

namespace {

using namespace eaao;

constexpr int kKernelEvents = 4096;

/** Precomputed op sequence, so the timed loop is pure queue work. */
struct KernelOps
{
    std::vector<sim::SimTime> at;        //!< absolute schedule times
    std::vector<sim::Duration> delay;    //!< relative schedule delays
    std::vector<sim::Duration> complete; //!< orchestrator completion delays
    std::vector<bool> cancel;            //!< cancel right after schedule?
    std::vector<std::uint32_t> slot;     //!< orchestrator-mix slot ids
};

KernelOps
makeKernelOps()
{
    KernelOps ops;
    for (int i = 0; i < kKernelEvents; ++i) {
        ops.at.push_back(sim::SimTime::fromNanos(
            static_cast<std::int64_t>(sim::mix64(i) % 1000000)));
        ops.delay.push_back(sim::Duration::minutes(
            2 + static_cast<int>(sim::mix64(i) % 13)));
        ops.complete.push_back(sim::Duration::millis(
            50 + static_cast<int>(sim::mix64(i ^ 0x51ab) % 200)));
        ops.cancel.push_back(sim::mix64(i ^ 0xbeef) % 16 != 0);
        ops.slot.push_back(
            static_cast<std::uint32_t>(sim::mix64(i) % 64));
    }
    return ops;
}

/** Schedule a batch at scattered times, then drain it. */
void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    const KernelOps ops = makeKernelOps();
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < kKernelEvents; ++i)
            eq.scheduleAt(ops.at[i], [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kKernelEvents);
}
BENCHMARK(BM_EventQueueScheduleStep);

/**
 * The reap pattern (Obs 2): every idle transition schedules a reap
 * minutes out and nearly always cancels it again when the instance is
 * reused. Schedule+cancel dominates; almost nothing fires.
 */
void
BM_EventQueueScheduleCancelChurn(benchmark::State &state)
{
    const KernelOps ops = makeKernelOps();
    const sim::Duration tick = sim::Duration::seconds(30);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < kKernelEvents; ++i) {
            const auto id =
                eq.scheduleAfter(ops.delay[i], [&fired] { ++fired; });
            if (ops.cancel[i])
                eq.cancel(id);
            if (i % 256 == 255)
                eq.runUntil(eq.now() + tick);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kKernelEvents);
}
BENCHMARK(BM_EventQueueScheduleCancelChurn);

/**
 * Orchestrator-shaped mix: per "request", a completion event that
 * fires, plus a reap event that is cancelled by the next request on
 * the same slot — interleaved with periodic horizon advances.
 */
void
BM_EventQueueMixedOrchestrator(benchmark::State &state)
{
    constexpr int kSlots = 64;
    const KernelOps ops = makeKernelOps();
    const sim::Duration reap_delay = sim::Duration::minutes(4);
    const sim::Duration tick = sim::Duration::seconds(1);
    std::uint64_t completions = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t reap_ids[kSlots] = {};
        for (int i = 0; i < kKernelEvents; ++i) {
            const std::uint32_t slot = ops.slot[i];
            if (reap_ids[slot] != 0) {
                eq.cancel(reap_ids[slot]);
                reap_ids[slot] = 0;
            }
            eq.scheduleAfter(ops.complete[i],
                             [&completions] { ++completions; });
            reap_ids[slot] =
                eq.scheduleAfter(reap_delay, [&completions] {});
            if (i % 64 == 63)
                eq.runUntil(eq.now() + tick);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(completions);
    state.SetItemsProcessed(state.iterations() * kKernelEvents);
}
BENCHMARK(BM_EventQueueMixedOrchestrator);

/**
 * Arrival storm: a deep backlog of pre-materialized arrivals scattered
 * over 600 s, each spawning a completion 50-250 ms out as it
 * fires — the heap's O(log n) push/pop at depth ~1M.
 */
void
BM_HeapSchedulePop(benchmark::State &state)
{
    constexpr int kStormEvents = 1 << 20;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < kStormEvents; ++i) {
            const auto at = sim::SimTime::fromNanos(static_cast<
                std::int64_t>(sim::mix64(i) % 600'000'000'000ULL));
            const auto complete = sim::Duration::millis(
                50 + static_cast<int>(sim::mix64(i ^ 0x51ab) % 200));
            eq.scheduleAt(at, [&eq, &fired, complete] {
                eq.scheduleAfter(complete, [&fired] { ++fired; });
            });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kStormEvents);
}
BENCHMARK(BM_HeapSchedulePop);

faas::PlatformConfig
baseConfig(std::uint64_t seed)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.seed = seed;
    return cfg;
}

void
BM_ReadTimestamp(benchmark::State &state)
{
    faas::Platform platform(baseConfig(1));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, 1);
    faas::SandboxView sbx = platform.sandbox(ids[0]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sbx.readTimestamp());
    }
}
BENCHMARK(BM_ReadTimestamp);

void
BM_Gen1FingerprintReading(benchmark::State &state)
{
    faas::Platform platform(baseConfig(2));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, 1);
    faas::SandboxView sbx = platform.sandbox(ids[0]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::readGen1(sbx));
    }
}
BENCHMARK(BM_Gen1FingerprintReading);

void
BM_QuantizeAndKey(benchmark::State &state)
{
    core::Gen1Reading reading;
    reading.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    reading.frequency_hz = 2.0e9;
    reading.tboot_s = -123456.789;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::fingerprintKey(
            core::quantizeGen1(reading, 1.0)));
    }
}
BENCHMARK(BM_QuantizeAndKey);

void
BM_CTestGroup(benchmark::State &state)
{
    faas::Platform platform(baseConfig(3));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, 800);
    // One full host cohort (~11 instances).
    const hw::HostId host = platform.oracleHostOf(ids[0]);
    std::vector<faas::InstanceId> cohort;
    for (const auto id : ids)
        if (platform.oracleHostOf(id) == host)
            cohort.push_back(id);
    channel::RngChannel chan(platform);
    const auto m =
        static_cast<std::uint32_t>((cohort.size() + 2) / 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(chan.run(cohort, m));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cohort.size()));
}
BENCHMARK(BM_CTestGroup);

void
BM_VerifyScalable(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(4));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    core::LaunchOptions launch;
    launch.instances = n;
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(platform, svc, launch);
    std::uint64_t tests = 0;
    for (auto _ : state) {
        channel::RngChannel chan(platform);
        const auto result = core::verifyScalable(
            platform, chan, obs.ids, obs.fp_keys, obs.class_keys);
        tests = result.group_tests;
        benchmark::DoNotOptimize(result);
    }
    state.counters["group_tests"] = static_cast<double>(tests);
}
BENCHMARK(BM_VerifyScalable)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void
BM_VerifyPairwise(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(5));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    core::LaunchOptions launch;
    launch.instances = n;
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(platform, svc, launch);
    channel::RngChannelConfig quick;
    quick.trials = 6;
    quick.detect_min = 3;
    for (auto _ : state) {
        channel::RngChannel chan(platform, quick);
        benchmark::DoNotOptimize(
            core::verifyPairwise(platform, chan, obs.ids));
    }
}
BENCHMARK(BM_VerifyPairwise)->Arg(100)->Arg(200);

void
BM_PlacementScaleOut(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        faas::Platform platform(baseConfig(6));
        const auto acct = platform.createAccount();
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        state.ResumeTiming();
        benchmark::DoNotOptimize(platform.connect(svc, n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScaleOut)->Arg(100)->Arg(800);

/**
 * Same placement workload with a live TraceSink + MetricsRegistry
 * attached. The delta against BM_PlacementScaleOut is the cost of
 * recording; BM_PlacementScaleOut itself pays only the null checks.
 */
void
BM_PlacementScaleOutTraced(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    obs::TrialObs slot;
    for (auto _ : state) {
        state.PauseTiming();
        slot.trace.clear();
        faas::PlatformConfig cfg = baseConfig(6);
        cfg.obs = slot.observer();
        faas::Platform platform(cfg);
        const auto acct = platform.createAccount();
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        state.ResumeTiming();
        benchmark::DoNotOptimize(platform.connect(svc, n));
    }
    benchmark::DoNotOptimize(slot.trace.size());
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScaleOutTraced)->Arg(100)->Arg(800);

/**
 * Placement hot path (min-load tree + dense loads) against an account
 * that already carries live load.
 */
void
BM_PickHost(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    // The base-prefix scan is demand-sized (prefix ~ live/spread),
    // so the account must already carry live load for placement cost
    // to matter; a cold account's prefix is a handful of hosts. The
    // per-service quota is 1000, so warm two services.
    constexpr std::uint32_t kWarmInstances = 1000;
    for (auto _ : state) {
        state.PauseTiming();
        faas::Platform platform(baseConfig(8));
        const auto acct = platform.createAccount();
        const auto warm =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        platform.connect(warm, kWarmInstances);
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        state.ResumeTiming();
        benchmark::DoNotOptimize(platform.connect(svc, n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PickHost)->Arg(100)->Arg(800);

/**
 * Request routing against a large pinned active pool: the routing
 * index picks the least-loaded instance in O(log n). One multi-hour
 * request pins each pool instance so none of them idles out
 * mid-benchmark.
 */
void
BM_RouteRequest(benchmark::State &state)
{
    const auto pool = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(9));
    faas::Orchestrator &orch = platform.orchestrator();
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    orch.setMaxConcurrency(svc, 4);
    platform.connect(svc, pool);
    for (std::uint32_t p = 0; p < pool; ++p)
        orch.routeRequest(svc, sim::Duration::hours(48));
    std::uint64_t routed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(orch.routeRequest(
            svc, sim::Duration::fromSecondsF(0.05)));
        if (++routed % 8 == 0)
            platform.advance(sim::Duration::fromSecondsF(0.05));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(routed));
}
BENCHMARK(BM_RouteRequest)->Arg(100)->Arg(700);

/**
 * Uniform fingerprint keys put every instance in one oversized group,
 * driving verifyScalable's recursive-resolution (arena) path end to
 * end through the real covert channel.
 */
void
BM_VerifyScalableUniformFp(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(10));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, n);
    const std::vector<std::uint64_t> fp_keys(ids.size(), 7);
    for (auto _ : state) {
        channel::RngChannel chan(platform);
        benchmark::DoNotOptimize(
            core::verifyScalable(platform, chan, ids, fp_keys, {}));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VerifyScalableUniformFp)->Arg(300);

void
BM_FleetConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        faas::PlatformConfig cfg = baseConfig(7);
        cfg.profile.host_count =
            static_cast<std::uint32_t>(state.range(0));
        faas::Platform platform(cfg);
        benchmark::DoNotOptimize(platform.fleet().size());
    }
}
BENCHMARK(BM_FleetConstruction)->Arg(520)->Arg(1850);

// --------------------------------------------------------------- snapshot

/**
 * A primed sharded platform paused at a pre-fold window barrier — the
 * state BM_SnapshotCapture serializes and BM_SnapshotRestore loads.
 * Arg(n) is the per-lane priming burst size, so it scales the
 * instance/trace tables that dominate the image.
 */
std::vector<faas::ShardOp>
snapshotWorkloadOps(faas::ShardedPlatform &platform, std::uint32_t burst,
                    sim::SimTime &horizon)
{
    using Kind = faas::ShardOp::Kind;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
        const faas::AccountId acct = platform.createAccount(lane, 10'000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        sim::SimTime t;
        std::uint32_t step = 0;
        for (std::uint32_t round = 0; round < 3; ++round) {
            faas::ShardOp connect;
            connect.kind = Kind::Connect;
            connect.at = t;
            connect.step = step++;
            connect.service = svc;
            connect.account = acct;
            connect.a = burst;
            ops.push_back(connect);
            t = t + sim::Duration::minutes(1);
            faas::ShardOp disconnect = connect;
            disconnect.kind = Kind::Disconnect;
            disconnect.at = t;
            disconnect.step = step++;
            ops.push_back(disconnect);
            t = t + sim::Duration::minutes(4);
        }
        horizon = t + sim::Duration::minutes(5);
    }
    return ops;
}

faas::ShardedConfig
snapshotConfig()
{
    faas::ShardedConfig cfg;
    cfg.profile.host_count = 1100; // 10 lanes
    cfg.seed = 4242;
    cfg.shards = 10;
    cfg.threads = 1;
    return cfg;
}

/** Advance a fresh platform to the last priming barrier, pre-fold. */
void
primeToBarrier(faas::ShardedPlatform &platform, std::uint32_t burst)
{
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops =
        snapshotWorkloadOps(platform, burst, horizon);
    platform.beginRun(std::move(ops), horizon);
    for (int w = 0; w < 28; ++w) { // 14 min of 30 s windows
        platform.advanceWindow();
        platform.completeWindow();
    }
    platform.advanceWindow(); // pre-fold capture point
}

void
BM_SnapshotCapture(benchmark::State &state)
{
    faas::ShardedPlatform platform(snapshotConfig());
    primeToBarrier(platform, static_cast<std::uint32_t>(state.range(0)));
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::vector<std::uint8_t> image = snap::Snapshotter::capture(platform);
        bytes = image.size();
        benchmark::DoNotOptimize(image.data());
    }
    state.counters["snapshot_bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                            static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotCapture)->Arg(50)->Arg(400);

void
BM_SnapshotRestore(benchmark::State &state)
{
    faas::ShardedPlatform primed(snapshotConfig());
    primeToBarrier(primed, static_cast<std::uint32_t>(state.range(0)));
    const std::vector<std::uint8_t> image = snap::Snapshotter::capture(primed);

    // The fork-many fast path: parse once, restore per iteration into
    // one reused platform.
    snap::SnapshotReader reader;
    std::string error;
    if (!reader.parse(image, error))
        state.SkipWithError(error.c_str());
    faas::ShardedPlatform target(snapshotConfig());
    for (auto _ : state) {
        if (!snap::Snapshotter::restore(reader, target, error))
            state.SkipWithError(error.c_str());
        benchmark::DoNotOptimize(target.laneCount());
    }
    state.counters["snapshot_bytes"] = static_cast<double>(image.size());
    state.SetBytesProcessed(static_cast<std::int64_t>(image.size()) *
                            static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotRestore)->Arg(50)->Arg(400);

} // namespace

BENCHMARK_MAIN();
