/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace eaao::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(SimTime::fromNanos(300), [&] { order.push_back(3); });
    eq.scheduleAt(SimTime::fromNanos(100), [&] { order.push_back(1); });
    eq.scheduleAt(SimTime::fromNanos(200), [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), SimTime::fromNanos(300));
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        eq.scheduleAt(SimTime::fromNanos(100),
                      [&order, i] { order.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    SimTime fired;
    eq.scheduleAfter(Duration::seconds(5),
                     [&] { fired = eq.now(); });
    eq.run();
    EXPECT_EQ(fired, SimTime() + Duration::seconds(5));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    const EventId id =
        eq.scheduleAfter(Duration::seconds(1), [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleAfter(Duration::seconds(1), [&] { ++count; });
    eq.scheduleAfter(Duration::seconds(10), [&] { ++count; });
    eq.runUntil(SimTime() + Duration::seconds(5));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), SimTime() + Duration::seconds(5));
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, AdvanceMovesClockWithoutEvents)
{
    EventQueue eq;
    eq.advance(Duration::minutes(30));
    EXPECT_EQ(eq.now(), SimTime() + Duration::minutes(30));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<std::int64_t> times;
    std::function<void()> tick = [&] {
        times.push_back(eq.now().ns());
        if (times.size() < 3)
            eq.scheduleAfter(Duration::seconds(10), tick);
    };
    eq.scheduleAfter(Duration::seconds(10), tick);
    eq.run();
    const std::int64_t s = Duration::seconds(10).ns();
    EXPECT_EQ(times, (std::vector<std::int64_t>{s, 2 * s, 3 * s}));
}

TEST(EventQueue, PendingCountsUncancelled)
{
    EventQueue eq;
    const EventId a = eq.scheduleAfter(Duration::seconds(1), [] {});
    eq.scheduleAfter(Duration::seconds(2), [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, PropertyFifoTieBreakAmongRandomSchedules)
{
    // Property: execution order equals a stable sort of the insertion
    // sequence by timestamp — FIFO among same-time events — for
    // arbitrary interleavings of a small set of times.
    Rng rng(321);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<std::pair<std::int64_t, int>> inserted;
        std::vector<int> executed;
        const int n = 50;
        for (int i = 0; i < n; ++i) {
            // Few distinct times => many ties.
            const std::int64_t t =
                static_cast<std::int64_t>(rng.uniformInt(
                    std::uint64_t{5})) * 100;
            inserted.emplace_back(t, i);
            eq.scheduleAt(SimTime::fromNanos(t),
                          [&executed, i] { executed.push_back(i); });
        }
        eq.run();

        auto expected = inserted;
        std::stable_sort(expected.begin(), expected.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        ASSERT_EQ(executed.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(executed[i], expected[i].second)
                << "round " << round << " position " << i;
    }
}

TEST(EventQueue, CancelOfAlreadyFiredIdReturnsFalse)
{
    EventQueue eq;
    bool ran = false;
    const EventId id =
        eq.scheduleAfter(Duration::seconds(1), [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(eq.cancel(id));
    // A cancelled-then-fired-time id also stays false on re-cancel.
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilSetsClockToHorizonWithNoEvents)
{
    EventQueue eq;
    const SimTime horizon = SimTime() + Duration::minutes(42);
    eq.runUntil(horizon);
    EXPECT_EQ(eq.now(), horizon);
    EXPECT_EQ(eq.pending(), 0u);

    // Same when the only events lie beyond the horizon: clock lands
    // exactly on the horizon and the events stay pending.
    EventQueue eq2;
    bool ran = false;
    eq2.scheduleAfter(Duration::hours(2), [&] { ran = true; });
    eq2.runUntil(SimTime() + Duration::hours(1));
    EXPECT_EQ(eq2.now(), SimTime() + Duration::hours(1));
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq2.pending(), 1u);
}

TEST(EventQueue, CancelInsideEventWorks)
{
    EventQueue eq;
    bool second_ran = false;
    EventId second =
        eq.scheduleAfter(Duration::seconds(2), [&] { second_ran = true; });
    eq.scheduleAfter(Duration::seconds(1), [&] { eq.cancel(second); });
    eq.run();
    EXPECT_FALSE(second_ran);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRefused)
{
    // Cancel an event, then schedule again so its slab slot is reused.
    // The old handle must not cancel (or otherwise affect) the new
    // occupant: the generation tag distinguishes them.
    EventQueue eq;
    const EventId old_id = eq.scheduleAfter(Duration::seconds(1), [] {});
    ASSERT_TRUE(eq.cancel(old_id));

    bool newer_ran = false;
    const EventId new_id =
        eq.scheduleAfter(Duration::seconds(2), [&] { newer_ran = true; });
    // Slot recycling means the two handles share the low (slot) bits
    // but differ in generation.
    ASSERT_NE(old_id, new_id);

    EXPECT_FALSE(eq.cancel(old_id)); // stale generation -> refused
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(newer_ran);
}

TEST(EventQueue, StaleHandleAfterFireAndReuseIsRefused)
{
    // Same as above but the slot is freed by firing, not cancelling.
    EventQueue eq;
    int fired = 0;
    const EventId old_id =
        eq.scheduleAfter(Duration::seconds(1), [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);

    int second_fired = 0;
    eq.scheduleAfter(Duration::seconds(1), [&] { ++second_fired; });
    EXPECT_FALSE(eq.cancel(old_id));
    eq.run();
    EXPECT_EQ(second_fired, 1);
}

TEST(EventQueue, HandlesAreNeverNull)
{
    // EventId 0 is the orchestrator's null sentinel; a real handle
    // must never collide with it, even for the first slot.
    EventQueue eq;
    for (int i = 0; i < 100; ++i) {
        const EventId id = eq.scheduleAfter(Duration::seconds(1), [] {});
        EXPECT_NE(id, 0u);
        eq.cancel(id);
    }
}

/**
 * Reference scheduler: std::multimap keyed by (when, seq) with
 * explicit cancellation by erase. Trivially correct; the arena must
 * match it event for event.
 */
class ReferenceQueue
{
  public:
    SimTime now() const { return now_; }

    std::uint64_t
    scheduleAfter(Duration delay, std::function<void()> cb)
    {
        const std::uint64_t id = next_id_++;
        pending_.emplace(std::make_pair(now_ + delay, id),
                         std::move(cb));
        return id;
    }

    bool
    cancel(std::uint64_t id)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->first.second == id) {
                pending_.erase(it);
                return true;
            }
        }
        return false;
    }

    std::size_t pending() const { return pending_.size(); }

    void
    runUntil(SimTime horizon)
    {
        while (!pending_.empty() &&
               pending_.begin()->first.first <= horizon) {
            auto it = pending_.begin();
            now_ = it->first.first;
            auto cb = std::move(it->second);
            pending_.erase(it);
            cb();
        }
        now_ = horizon;
    }

    void
    run()
    {
        while (!pending_.empty())
            runUntil(pending_.begin()->first.first);
    }

  private:
    SimTime now_;
    std::uint64_t next_id_ = 1;
    // (when, insertion seq) -> callback; seq keeps FIFO among ties.
    std::map<std::pair<SimTime, std::uint64_t>, std::function<void()>>
        pending_;
};

TEST(EventQueue, PropertyMatchesReferenceOverRandomOps)
{
    // 10k mixed schedule/cancel/runUntil ops driven by one RNG against
    // both the arena and the multimap reference; the observable
    // execution traces (which event fired, at what virtual time) and
    // every cancel() verdict must agree exactly.
    Rng rng(0xeaa0);
    EventQueue arena;
    ReferenceQueue ref;
    std::vector<std::pair<int, std::int64_t>> arena_trace, ref_trace;
    std::vector<std::pair<EventId, std::uint64_t>> cancellable;
    int tag = 0;

    for (int op = 0; op < 10000; ++op) {
        const std::uint64_t kind = rng.uniformInt(std::uint64_t{10});
        if (kind < 6) { // schedule
            const Duration d = Duration::millis(static_cast<std::int64_t>(
                rng.uniformInt(std::uint64_t{5000})));
            const int t = tag++;
            const EventId a = arena.scheduleAfter(
                d, [&arena_trace, &arena, t] {
                    arena_trace.emplace_back(t, arena.now().ns());
                });
            const std::uint64_t r = ref.scheduleAfter(
                d, [&ref_trace, &ref, t] {
                    ref_trace.emplace_back(t, ref.now().ns());
                });
            if (rng.uniformInt(std::uint64_t{2}) == 0)
                cancellable.emplace_back(a, r);
        } else if (kind < 9) { // cancel a remembered handle
            if (!cancellable.empty()) {
                const std::uint64_t pick = rng.uniformInt(
                    static_cast<std::uint64_t>(cancellable.size()));
                const auto [a, r] = cancellable[pick];
                cancellable.erase(cancellable.begin() +
                                  static_cast<std::ptrdiff_t>(pick));
                EXPECT_EQ(arena.cancel(a), ref.cancel(r));
            }
        } else { // advance the horizon
            const Duration d = Duration::millis(static_cast<std::int64_t>(
                rng.uniformInt(std::uint64_t{2000})));
            arena.runUntil(arena.now() + d);
            ref.runUntil(ref.now() + d);
            EXPECT_EQ(arena.now(), ref.now());
        }
        ASSERT_EQ(arena.pending(), ref.pending()) << "op " << op;
    }
    arena.run();
    ref.run();
    EXPECT_EQ(arena_trace, ref_trace);
    EXPECT_EQ(arena.pending(), 0u);
}

/** Per stream: ms-quantized, strictly increasing event instants. */
struct StreamPlan
{
    std::vector<SimTime> chain[2]; //!< [0] arrivals, [1] churns
    SimTime arm_at;                //!< first armed by an event here
};

enum class ArmMode
{
    Batch,    //!< reference: a window's whole chain scheduled when armed
    Reserved, //!< one pending event per chain, re-armed on reserved seqs
    FreshSeq, //!< re-armed on fresh seqs: the tie order it must not use
};

/**
 * Windows of open-loop chains plus tie-making background events on one
 * kernel, recording the pop sequence. Background events are scheduled
 * both before a window is armed and by events firing inside it, at
 * whole milliseconds, so they tie with chain events on both sides.
 * Every firing draws from one RNG in pop order, so any reordering
 * cascades into a different trace.
 */
class ArmDriver
{
  public:
    using Trace = std::vector<std::pair<std::uint64_t, std::int64_t>>;

    static constexpr std::uint64_t kBackground = 1ULL << 40;

    ArmDriver(ArmMode mode, std::vector<StreamPlan> plans)
        : mode_(mode), plans_(std::move(plans)),
          next_(plans_.size()), seq_(plans_.size())
    {
    }

    Trace
    run(int windows, Duration window)
    {
        for (std::size_t s = 0; s < plans_.size(); ++s) {
            q_.scheduleAt(plans_[s].arm_at, [this, s] {
                armed_.push_back(s);
                arm(s);
            });
        }
        for (int w = 0; w < windows; ++w) {
            const SimTime top = SimTime() + window * w;
            stop_ = top + window;
            for (int i = 0; i < 40; ++i)
                spawn(top + Duration::millis(static_cast<std::int64_t>(
                                rng_.uniformInt(static_cast<std::uint64_t>(
                                    window.ns() / 1000000)))));
            for (const std::size_t s : armed_)
                arm(s);
            q_.runUntil(stop_);
        }
        q_.run();
        return trace_;
    }

  private:
    bool
    due(std::size_t s, int c) const
    {
        const std::vector<SimTime> &chain = plans_[s].chain[c];
        return next_[s][c] < chain.size() && chain[next_[s][c]] < stop_;
    }

    void
    arm(std::size_t s)
    {
        if (mode_ == ArmMode::Reserved)
            seq_[s] = q_.reserveSeqs(2);
        for (int c = 0; c < 2; ++c) {
            if (mode_ != ArmMode::Batch) {
                rearm(s, c);
                continue;
            }
            while (due(s, c)) {
                const std::uint64_t label = labelOf(s, c);
                q_.scheduleAt(plans_[s].chain[c][next_[s][c]++],
                              [this, label] { fire(label); });
            }
        }
    }

    void
    rearm(std::size_t s, int c)
    {
        if (!due(s, c))
            return;
        const std::uint64_t label = labelOf(s, c);
        const SimTime at = plans_[s].chain[c][next_[s][c]++];
        auto cb = [this, s, c, label] {
            fire(label);
            rearm(s, c);
        };
        if (mode_ == ArmMode::Reserved)
            q_.scheduleAt(at, seq_[s] + static_cast<std::uint64_t>(c),
                          std::move(cb));
        else
            q_.scheduleAt(at, std::move(cb));
    }

    std::uint64_t
    labelOf(std::size_t s, int c) const
    {
        return (s << 24) | (static_cast<std::uint64_t>(c) << 20) |
               next_[s][c];
    }

    void
    fire(std::uint64_t label)
    {
        trace_.emplace_back(label, q_.now().ns());
        if (rng_.bernoulli(0.4))
            spawn(q_.now() + Duration::millis(static_cast<std::int64_t>(
                                 rng_.uniformInt(std::uint64_t{20}))));
    }

    void
    spawn(SimTime at)
    {
        const std::uint64_t label = kBackground + background_++;
        q_.scheduleAt(at, [this, label] { fire(label); });
    }

    EventQueue q_;
    ArmMode mode_;
    std::vector<StreamPlan> plans_;
    std::vector<std::array<std::size_t, 2>> next_; //!< chain cursors
    std::vector<std::uint64_t> seq_;               //!< reserved per window
    std::vector<std::size_t> armed_;
    SimTime stop_;
    Rng rng_{0x7e1e};
    std::uint64_t background_ = 0;
    Trace trace_;
};

TEST(EventQueue, ReservedSeqRearmPopsLikeTheBatchReference)
{
    // Four streams over five 400 ms windows: arrivals 1-4 ms apart,
    // churns 40-120 ms apart. Three streams arm at t=0; the fourth
    // starts mid-window, the way an open-loop op lands on a lane.
    Rng rng(0x0a1e);
    std::vector<StreamPlan> plans(4);
    for (std::size_t s = 0; s < plans.size(); ++s) {
        plans[s].arm_at = SimTime() + Duration::millis(s == 3 ? 237 : 0);
        for (int c = 0; c < 2; ++c) {
            const auto lo = static_cast<std::int64_t>(c == 0 ? 1 : 40);
            const auto hi = static_cast<std::int64_t>(c == 0 ? 4 : 120);
            SimTime t = plans[s].arm_at;
            while ((t = t + Duration::millis(rng.uniformInt(lo, hi))) <
                   SimTime() + Duration::millis(1900))
                plans[s].chain[c].push_back(t);
        }
    }
    const Duration window = Duration::millis(400);
    const ArmDriver::Trace ref =
        ArmDriver(ArmMode::Batch, plans).run(5, window);
    EXPECT_EQ(ArmDriver(ArmMode::Reserved, plans).run(5, window), ref);

    // The test has teeth: chain events share instants with background
    // events, and fresh seqs on re-arm reorder those ties.
    std::size_t mixed_ties = 0;
    for (std::size_t i = 1; i < ref.size(); ++i) {
        mixed_ties += ref[i].second == ref[i - 1].second &&
                      (ref[i].first >= ArmDriver::kBackground) !=
                          (ref[i - 1].first >= ArmDriver::kBackground);
    }
    EXPECT_GT(mixed_ties, 100u);
    EXPECT_NE(ArmDriver(ArmMode::FreshSeq, plans).run(5, window), ref);
}

} // namespace
} // namespace eaao::sim
