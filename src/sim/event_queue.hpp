/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal but complete event queue: schedule callables at absolute
 * virtual times, run until quiescence or a horizon, cancel events.
 * Ties are broken by insertion order (FIFO among same-time events) so
 * runs are deterministic.
 *
 * Events live in a slab: a recycled slot vector with a free-list. An
 * EventId is a generation-tagged {slot, gen} handle packed into one
 * 64-bit word, so cancel() is O(1) slot invalidation — no hash-map of
 * callbacks, no tombstone set — and a stale handle (slot since reused)
 * is rejected by its generation mismatch. The ready queue is a 4-ary
 * min-heap of 24-byte {when, seq, slot, gen} entries kept in one
 * contiguous vector, fed through an unsorted staging buffer that is
 * flushed only when the queue needs to pop — so a schedule+cancel
 * pair (the dominant reap pattern) usually never sifts at all. A
 * cancelled event's entry is dropped at flush time or lazily when it
 * surfaces (its generation no longer matches the slot's), while its
 * slot and callback are reclaimed immediately. Callbacks are
 * small-buffer-optimized (see inplace_callback.hpp) so the common
 * simulator lambdas never touch the allocator. See
 * docs/event-kernel.md.
 */

#ifndef EAAO_SIM_EVENT_QUEUE_HPP
#define EAAO_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"

namespace eaao::sim {

/**
 * Handle identifying a scheduled event (for cancellation).
 *
 * Packed {slot, gen}: the low 32 bits index the event slab, the high
 * 32 bits carry the slot's generation at scheduling time. Generations
 * start at 1, so a valid handle is never 0 and `EventId id = 0` keeps
 * working as a null handle.
 */
using EventId = std::uint64_t;

/**
 * Domain tag attached to a scheduled event so checkpoint/restore can
 * rebuild its callback: `kind` names the callback family (0 =
 * untagged, not snapshot-safe) and `arg` carries its captured state
 * (typically an instance id). See docs/checkpoint.md.
 */
struct EventTag
{
    std::uint32_t kind = 0;
    std::uint64_t arg = 0;
};

/**
 * Plain-data image of a queue's complete state (slab, heap, staging
 * buffer, free-list, counters, clock) produced by exportImage() and
 * consumed by importImage(). Callbacks are represented by their
 * EventTags; the importer rebinds them through a caller-supplied
 * factory.
 */
struct EventQueueImage
{
    struct SlotImage
    {
        std::uint32_t gen = 1;
        std::uint8_t live = 0;
        std::uint32_t kind = 0;
        std::uint64_t arg = 0;
    };

    struct EntryImage
    {
        std::int64_t when_ns = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
    };

    std::int64_t now_ns = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::vector<SlotImage> slots;
    std::vector<EntryImage> heap;
    std::vector<EntryImage> staging;
    std::vector<std::uint32_t> free_list;
};

/**
 * Priority-queue based discrete event scheduler over SimTime.
 */
class EventQueue
{
  public:
    using Callback = InplaceCallback;

    /** Create a queue whose clock starts at @p start. */
    explicit EventQueue(SimTime start = SimTime()) : now_(start) {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (must be >= now()).
     * @return Handle usable with cancel().
     */
    EventId scheduleAt(SimTime when, Callback cb);

    /** Schedule @p cb after a relative delay. */
    EventId scheduleAfter(Duration delay, Callback cb);

    /**
     * Schedule @p cb at @p when carrying a rebind tag so the event
     * survives checkpoint/restore (see exportImage/importImage).
     * @p tag.kind must be non-zero.
     */
    EventId scheduleAt(SimTime when, EventTag tag, Callback cb);

    /** Tagged variant of scheduleAfter. */
    EventId scheduleAfter(Duration delay, EventTag tag, Callback cb);

    /**
     * Claim @p n consecutive tie-break sequence numbers now and return
     * the first. An event scheduled later under one of them (the
     * overload below) sorts among same-instant events exactly as if it
     * had been scheduled at the moment of the reservation. That lets a
     * self-re-arming event keep the tie order of a batch scheduled up
     * front (docs/event-kernel.md).
     */
    std::uint64_t reserveSeqs(std::uint64_t n);

    /**
     * Schedule @p cb at @p when under @p seq, a number handed out by
     * reserveSeqs(). The caller keeps (when, seq) unique among pending
     * events: one reserved seq carries at most one pending event per
     * instant.
     */
    EventId scheduleAt(SimTime when, std::uint64_t seq, Callback cb);

    /**
     * Cancel a pending event: O(1) slot invalidation (the callback is
     * destroyed and the slot recycled immediately). A handle that
     * already fired, was already cancelled, or whose slot has been
     * reused (stale generation) is refused.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const;

    /** Pre-size the slab and heap for @p n concurrent events. */
    void reserve(std::size_t n);

    /** Events executed by this queue so far (cancelled ones excluded). */
    std::uint64_t processed() const { return processed_; }

    /** Events ever accepted by scheduleAt/scheduleAfter. */
    std::uint64_t scheduled() const { return scheduled_; }

    /** Events successfully cancelled before firing. */
    std::uint64_t cancelled() const { return cancelled_; }

    /** Run all events until the queue drains. */
    void run();

    /**
     * Run events with timestamp <= @p horizon, then set the clock to
     * @p horizon (even if no events fired).
     */
    void runUntil(SimTime horizon);

    /** Advance the clock by @p d, firing everything due in between. */
    void advance(Duration d);

    /**
     * Export the queue's complete state as plain data. Fails (returns
     * false) when a live event carries no EventTag — an untagged
     * callback cannot be rebound on restore.
     */
    bool exportImage(EventQueueImage &out) const;

    /**
     * Replace this queue's entire state with @p img, rebinding each
     * live slot's callback through @p rebind(kind, arg) -> Callback.
     * The slab, heap, staging buffer, free-list, counters, sequence
     * numbers and clock are restored verbatim, so EventIds handed out
     * before the capture stay valid afterwards.
     */
    template <typename Rebind>
    void
    importImage(const EventQueueImage &img, Rebind &&rebind)
    {
        now_ = SimTime::fromNanos(img.now_ns);
        next_seq_ = img.next_seq;
        processed_ = img.processed;
        scheduled_ = img.scheduled;
        cancelled_ = img.cancelled;
        slots_.clear();
        slots_.resize(img.slots.size());
        live_ = 0;
        for (std::size_t i = 0; i < img.slots.size(); ++i) {
            const EventQueueImage::SlotImage &s = img.slots[i];
            Slot &slot = slots_[i];
            slot.gen = s.gen;
            slot.live = s.live != 0;
            slot.tag = EventTag{s.kind, s.arg};
            if (slot.live) {
                slot.cb = rebind(s.kind, s.arg);
                ++live_;
            }
        }
        const auto entry = [](const EventQueueImage::EntryImage &e) {
            return HeapEntry{SimTime::fromNanos(e.when_ns), e.seq, e.slot,
                             e.gen};
        };
        heap_.clear();
        heap_.reserve(img.heap.size());
        for (const EventQueueImage::EntryImage &e : img.heap)
            heap_.push_back(entry(e));
        staging_.clear();
        staging_.reserve(img.staging.size());
        for (const EventQueueImage::EntryImage &e : img.staging)
            staging_.push_back(entry(e));
        free_ = img.free_list;
    }

  private:
    /**
     * One ready-queue entry. when/seq are duplicated out of the slot
     * so heap comparisons stay inside the contiguous heap vector
     * instead of chasing slab pointers.
     */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t seq; //!< FIFO tie-break
        std::uint32_t slot;
        std::uint32_t gen; //!< slot generation at scheduling time
    };

    /** One slab slot; recycled through the free-list. */
    struct Slot
    {
        std::uint32_t gen = 1; //!< bumped on fire/cancel; never 0
        bool live = false;
        EventTag tag; //!< rebind tag; kind 0 = untagged
        Callback cb;
    };

    static EventId
    packId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | slot;
    }

    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    static std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    /** True when entry @p a fires strictly before @p b. */
    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** True when @p e still refers to a pending event. */
    bool
    entryLive(const HeapEntry &e) const
    {
        const Slot &slot = slots_[e.slot];
        return slot.live && slot.gen == e.gen;
    }

    /** Store @p cb in a free slot and stage it under (@p when, @p seq). */
    EventId place(SimTime when, EventTag tag, std::uint64_t seq,
                  Callback cb);

    void heapPush(HeapEntry entry);

    /** Pop the heap top. Precondition: non-empty. */
    HeapEntry heapPop();

    /**
     * Move still-live staged entries into the heap. Entries whose
     * event was cancelled while staged are dropped here without ever
     * being sifted — in the reap pattern (schedule a timeout, almost
     * always cancel it before it fires) most entries die in staging
     * and the heap only ever sees the survivors.
     */
    void flushStaging();

    /** Kill @p slot: destroy the callback, retag, recycle. */
    void retire(std::uint32_t idx);

    /** Pop dead (cancelled) tops so the heap front is live or empty. */
    void compactTop();

    /** Execute a live popped entry. */
    void fire(const HeapEntry &top);

    SimTime now_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t cancelled_ = 0;
    std::size_t live_ = 0;
    std::vector<Slot> slots_;
    std::vector<HeapEntry> heap_;      //!< 4-ary min-heap
    std::vector<HeapEntry> staging_;   //!< scheduled, not yet in heap_
    std::vector<std::uint32_t> free_;  //!< recycled slot indices
};

} // namespace eaao::sim

#endif // EAAO_SIM_EVENT_QUEUE_HPP
