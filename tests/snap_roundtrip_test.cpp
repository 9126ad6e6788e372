/**
 * @file
 * Bit-exactness of checkpoint/restore round-trips: RNG stream
 * positions (including the Box-Muller cache), the event queue under a
 * randomized 10k-op workload, and full sharded-platform snapshots —
 * a restored run's totals (spend doubles included) must equal the
 * straight-through run's bit for bit, from a fresh platform, from a
 * reused one (the fork-many fast path), and from a pre-parsed
 * SnapshotReader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "faas/sharded.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"

namespace eaao::snap {
namespace {

// ------------------------------------------------------------------ rng

TEST(SnapRoundTrip, RngStateRoundTripsBitExact)
{
    sim::Rng rng(0x5eedULL);
    for (int i = 0; i < 17; ++i)
        rng();
    // An odd number of normal() draws leaves the Box-Muller cache
    // armed; the captured state must replay it.
    for (int i = 0; i < 3; ++i)
        rng.normal();

    const sim::RngState state = rng.saveState();
    sim::Rng resumed(1ULL); // different seed: restoreState must win
    resumed.restoreState(state);

    for (int i = 0; i < 64; ++i) {
        const double a = rng.normal(), b = resumed.normal();
        EXPECT_EQ(0, std::memcmp(&a, &b, sizeof a)) << "draw " << i;
        EXPECT_EQ(rng(), resumed());
    }
}

TEST(SnapRoundTrip, RngForkPositionsSurviveRoundTrip)
{
    sim::Rng rng(99ULL);
    rng.normal(); // arm the cache before forking
    const sim::RngState state = rng.saveState();
    sim::Rng resumed(12345ULL);
    resumed.restoreState(state);
    // fork() must derive identical child streams from the restored
    // position, and identical draws must follow the fork.
    for (const std::uint64_t stream : {0ULL, 7ULL, 0x123456789ULL}) {
        sim::Rng a = rng.fork(stream), b = resumed.fork(stream);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(a(), b());
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(rng(), resumed());
}

// ---------------------------------------------------------------- queue

/** An event queue plus the log its tagged callbacks append to. */
struct QueueHarness
{
    sim::EventQueue eq;
    std::vector<std::uint64_t> log;

    sim::EventQueue::Callback
    callbackFor(std::uint64_t arg)
    {
        return [this, arg] { log.push_back(arg ^ (arg << 7)); };
    }
};

/**
 * Drive @p h with @p n deterministic pseudo-random operations
 * (schedule / cancel / advance), mirroring every EventId into
 * @p ids so later cancels target identical handles in two harnesses.
 */
void
driveOps(QueueHarness &h, sim::Rng &rng, std::size_t n,
         std::vector<sim::EventId> &ids)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t pick = rng() % 100;
        if (pick < 60) {
            const std::uint64_t arg = rng();
            const sim::Duration delay =
                sim::Duration::nanos(1 + static_cast<std::int64_t>(
                                             rng() % 10'000));
            ids.push_back(h.eq.scheduleAfter(
                delay, sim::EventTag{1, arg}, h.callbackFor(arg)));
        } else if (pick < 75 && !ids.empty()) {
            h.eq.cancel(ids[rng() % ids.size()]);
        } else {
            h.eq.advance(sim::Duration::nanos(
                static_cast<std::int64_t>(rng() % 5'000)));
        }
    }
}

/** Field-by-field equality of two queue images. */
void
expectSameImage(const sim::EventQueueImage &a, const sim::EventQueueImage &b)
{
    EXPECT_EQ(a.now_ns, b.now_ns);
    EXPECT_EQ(a.next_seq, b.next_seq);
    EXPECT_EQ(a.processed, b.processed);
    EXPECT_EQ(a.scheduled, b.scheduled);
    EXPECT_EQ(a.cancelled, b.cancelled);
    ASSERT_EQ(a.slots.size(), b.slots.size());
    for (std::size_t i = 0; i < a.slots.size(); ++i) {
        const auto &x = a.slots[i], &y = b.slots[i];
        EXPECT_TRUE(x.gen == y.gen && x.live == y.live && x.kind == y.kind &&
                    x.arg == y.arg)
            << "slot " << i;
    }
    const auto same = [](const std::vector<sim::EventQueueImage::EntryImage> &p,
                         const std::vector<sim::EventQueueImage::EntryImage> &q) {
        return std::equal(p.begin(), p.end(), q.begin(), q.end(),
                          [](const auto &x, const auto &y) {
                              return x.when_ns == y.when_ns && x.seq == y.seq &&
                                     x.slot == y.slot && x.gen == y.gen;
                          });
    };
    EXPECT_TRUE(same(a.heap, b.heap));
    EXPECT_TRUE(same(a.staging, b.staging));
    EXPECT_EQ(a.free_list, b.free_list);
}

TEST(SnapRoundTrip, EventQueueSurvives10kOpPropertyTest)
{
    // Phase A: 10k random ops, then capture the queue mid-flight.
    QueueHarness ref;
    sim::Rng rng(2024ULL);
    std::vector<sim::EventId> ids;
    driveOps(ref, rng, 10'000, ids);

    sim::EventQueueImage img;
    ASSERT_TRUE(ref.eq.exportImage(img));

    QueueHarness restored;
    restored.eq.importImage(img, [&](std::uint32_t kind,
                                     std::uint64_t arg) {
        EXPECT_EQ(kind, 1u);
        return restored.callbackFor(arg);
    });
    ASSERT_EQ(restored.eq.now().ns(), ref.eq.now().ns());
    ASSERT_EQ(restored.eq.pending(), ref.eq.pending());
    // The restored queue re-exports the captured image verbatim.
    sim::EventQueueImage again;
    ASSERT_TRUE(restored.eq.exportImage(again));
    expectSameImage(img, again);

    // Phase B: 10k more identical ops on both queues — the restored
    // queue must schedule identical EventIds (verbatim slab/free-list
    // restore), honor pre-capture handles for cancels, and fire the
    // same events in the same order.
    const sim::RngState fork_point = rng.saveState();
    std::vector<sim::EventId> ref_ids = ids;
    driveOps(ref, rng, 10'000, ref_ids);

    sim::Rng rng2(54321ULL);
    rng2.restoreState(fork_point);
    std::vector<sim::EventId> restored_ids = ids;
    driveOps(restored, rng2, 10'000, restored_ids);

    ref.eq.run();
    restored.eq.run();

    // The reference harness logged phase-A firings the restored one
    // never saw; everything from the capture point on must match.
    ASSERT_GE(ref.log.size(), restored.log.size());
    const std::size_t pre = ref.log.size() - restored.log.size();
    EXPECT_TRUE(std::equal(restored.log.begin(), restored.log.end(),
                           ref.log.begin() + static_cast<std::ptrdiff_t>(
                                                 pre)));
    EXPECT_EQ(restored.eq.now().ns(), ref.eq.now().ns());
    EXPECT_EQ(restored.eq.scheduled(), ref.eq.scheduled());
    EXPECT_EQ(restored.eq.processed(), ref.eq.processed());
    EXPECT_EQ(restored.eq.cancelled(), ref.eq.cancelled());
    EXPECT_EQ(restored.eq.pending(), ref.eq.pending());
}

// ------------------------------------------------------------- platform

faas::ShardedConfig
campaignConfig(std::uint32_t shards, unsigned threads)
{
    faas::ShardedConfig cfg;
    cfg.profile.host_count = 550; // 5 lanes
    cfg.seed = 4242;
    cfg.shards = shards;
    cfg.threads = threads;
    return cfg;
}

/** A small prime-then-storm campaign across every lane. */
std::vector<faas::ShardOp>
campaignOps(faas::ShardedPlatform &platform, sim::SimTime &horizon)
{
    using Kind = faas::ShardOp::Kind;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
        const faas::AccountId acct = platform.createAccount(lane, 1000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        sim::SimTime t;
        std::uint32_t step = 0;
        const auto push = [&](Kind kind) -> faas::ShardOp & {
            faas::ShardOp op;
            op.kind = kind;
            op.at = t;
            op.step = step++;
            op.service = svc;
            op.account = acct;
            ops.push_back(op);
            return ops.back();
        };
        push(Kind::Connect).a = 20;
        t = t + sim::Duration::minutes(1);
        push(Kind::Disconnect);
        t = t + sim::Duration::minutes(4);
        faas::ShardOp &storm = push(Kind::RouteStorm);
        storm.n = 400;
        storm.dur = sim::Duration::fromSecondsF(0.05);
        storm.dur_step = sim::Duration::fromSecondsF(0.01);
        storm.dur_mod = 7;
        storm.gap_every = 8;
        storm.gap = sim::Duration::fromSecondsF(0.02);
        storm.spend_every = 64;
        horizon = t + sim::Duration::minutes(5);
    }
    return ops;
}

struct CapturedRun
{
    std::vector<std::uint8_t> image;
    faas::ShardedTotals totals;
};

/** Run to the pre-fold barrier of @p capture_at, snapshot, finish. */
CapturedRun
primeCaptureFinish(std::uint32_t shards, unsigned threads)
{
    faas::ShardedPlatform platform(campaignConfig(shards, threads));
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = campaignOps(platform, horizon);
    platform.beginRun(std::move(ops), horizon);
    CapturedRun out;
    // Capture at the last priming window: 5 min / 30 s = 10 windows,
    // barrier index 9, pre-fold (advanceWindow done, fold pending).
    for (std::uint32_t w = 0; w < 9; ++w) {
        platform.advanceWindow();
        platform.completeWindow();
    }
    platform.advanceWindow();
    out.image = Snapshotter::capture(platform);
    platform.completeWindow();
    platform.resumeRun();
    out.totals = platform.totals();
    return out;
}

void
expectTotalsBitExact(const faas::ShardedTotals &a,
                     const faas::ShardedTotals &b)
{
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.events_scheduled, b.events_scheduled);
    EXPECT_EQ(a.events_processed, b.events_processed);
    // Spend doubles compare as bit patterns, not approximately: the
    // snapshot stores IEEE-754 bits verbatim and the resumed run must
    // accumulate from exactly the captured partial sums.
    EXPECT_EQ(0, std::memcmp(&a.spend_checksum, &b.spend_checksum, 8));
    EXPECT_EQ(0, std::memcmp(&a.final_spend_usd, &b.final_spend_usd, 8));
}

TEST(SnapRoundTrip, RestoredRunMatchesStraightRunBitExact)
{
    const CapturedRun ref = primeCaptureFinish(2, 1);

    faas::ShardedPlatform platform(campaignConfig(2, 1));
    std::string error;
    ASSERT_TRUE(Snapshotter::restore(ref.image, platform, error)) << error;
    platform.resumeRun();
    expectTotalsBitExact(platform.totals(), ref.totals);
}

TEST(SnapRoundTrip, RestoreIsGroupingInvariant)
{
    // A snapshot captured at one (shards, threads) grouping restores
    // at another: lane layout depends only on the fleet size.
    const CapturedRun ref = primeCaptureFinish(2, 1);

    faas::ShardedPlatform platform(campaignConfig(5, 4));
    std::string error;
    ASSERT_TRUE(Snapshotter::restore(ref.image, platform, error)) << error;
    platform.resumeRun();
    expectTotalsBitExact(platform.totals(), ref.totals);
}

TEST(SnapRoundTrip, ForkManyReusesOnePlatformAndOneParse)
{
    const CapturedRun ref = primeCaptureFinish(3, 2);

    // The forked-storm fast path: parse (and checksum) once, then
    // restore repeatedly into one reused platform — including into a
    // platform that has already run to completion.
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.parse(ref.image, error, 2)) << error;

    faas::ShardedPlatform platform(campaignConfig(3, 2));
    for (int fork = 0; fork < 3; ++fork) {
        ASSERT_TRUE(Snapshotter::restore(reader, platform, error))
            << "fork " << fork << ": " << error;
        platform.resumeRun();
        expectTotalsBitExact(platform.totals(), ref.totals);
    }
}

TEST(SnapRoundTrip, CapturedImageIsThreadCountInvariant)
{
    // Parallel per-lane capture must assemble the identical image a
    // serial capture produces.
    const CapturedRun serial = primeCaptureFinish(5, 1);
    const CapturedRun fanned = primeCaptureFinish(5, 4);
    EXPECT_EQ(serial.image, fanned.image);
}

TEST(SnapRoundTrip, RestoreRejectsConfigMismatch)
{
    const CapturedRun ref = primeCaptureFinish(2, 1);

    faas::ShardedConfig other = campaignConfig(2, 1);
    other.seed = 4243; // fingerprinted: must refuse
    faas::ShardedPlatform platform(other);
    std::string error;
    EXPECT_FALSE(Snapshotter::restore(ref.image, platform, error));
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

} // namespace
} // namespace eaao::snap
