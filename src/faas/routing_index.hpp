/**
 * @file
 * Incremental request-routing index.
 *
 * `routeRequest` used to scan a service's whole active list per
 * request to find the least-loaded instance with spare concurrency —
 * O(active instances) per request, the dominant cost of request-heavy
 * campaigns. This index keeps one indexed 4-ary min-heap per service,
 * keyed `(in_flight, activation seq)`, plus a position vector indexed
 * by instance id, so the least-loaded routable instance is the heap
 * front and an `in_flight` change is one in-place sift: no node is
 * freed or allocated per request (heap storage only grows to the
 * service's peak active count).
 *
 * Determinism: a linear scan (testkit::referenceWarmTarget) picks the
 * *first* instance in active-list order among those with the minimal
 * `in_flight`. An instance's position in the active list is fixed at
 * activation (entries are only appended and erased, never reordered),
 * so a monotonically increasing activation sequence number reproduces
 * the list order exactly — the heap's `(in_flight, seq)` minimum is the
 * same instance the scan finds, byte for byte. Keys are unique, so the
 * minimum does not depend on the heap's internal layout (insertion
 * order, restore order).
 */

#ifndef EAAO_FAAS_ROUTING_INDEX_HPP
#define EAAO_FAAS_ROUTING_INDEX_HPP

#include <cstdint>
#include <vector>

#include "faas/types.hpp"
#include "support/logging.hpp"

namespace eaao::faas {

/** Per-service least-loaded heaps over active instances. */
class RoutingIndex
{
  public:
    /** Register a newly activated instance; returns its sequence key. */
    std::uint64_t
    add(ServiceId service, InstanceId id, std::uint32_t in_flight)
    {
        const std::uint64_t seq = next_seq_++;
        insertRestored(service, id, in_flight, seq);
        return seq;
    }

    /** Re-key indexed instance @p id after its in_flight changed. */
    void
    reindex(InstanceId id, std::uint32_t in_flight)
    {
        const Where w = where_[id];
        std::vector<Entry> &heap = heaps_[w.service];
        Entry e = heap[w.pos];
        const bool up = in_flight < e.in_flight;
        e.in_flight = in_flight;
        if (up)
            siftUp(heap, w.pos, e);
        else
            siftDown(heap, w.pos, e);
    }

    /** Drop indexed instance @p id (it is deactivating). */
    void
    remove(InstanceId id)
    {
        Where &w = where_[id];
        EAAO_ASSERT(w.pos != kAbsent, "instance ", id, " is not indexed");
        std::vector<Entry> &heap = heaps_[w.service];
        const std::uint32_t pos = w.pos;
        w.pos = kAbsent;
        const Entry last = heap.back();
        heap.pop_back();
        if (pos == heap.size())
            return;
        // Refill the hole with the former last entry, in whichever
        // direction its key moves relative to the removed one.
        if (pos > 0 && earlier(last, heap[(pos - 1) / 4]))
            siftUp(heap, pos, last);
        else
            siftDown(heap, pos, last);
    }

    /**
     * Least-loaded active instance of @p service with spare
     * concurrency under @p max_concurrency, or kNoInstance.
     */
    InstanceId
    leastLoaded(ServiceId service, std::uint32_t max_concurrency) const
    {
        if (service >= heaps_.size() || heaps_[service].empty())
            return kNoInstance;
        const Entry &top = heaps_[service].front();
        return top.in_flight < max_concurrency ? top.id : kNoInstance;
    }

    /** Indexed instances across all services. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const std::vector<Entry> &heap : heaps_)
            n += heap.size();
        return n;
    }

    /** Next activation sequence key (checkpoint capture). */
    std::uint64_t nextSeq() const { return next_seq_; }

    /**
     * Reset to an empty index with @p next_seq as the next activation
     * key; entries are re-inserted from restored instance records via
     * insertRestored() (checkpoint restore). Heap storage is kept.
     */
    void
    resetForRestore(std::uint64_t next_seq)
    {
        for (std::vector<Entry> &heap : heaps_)
            heap.clear();
        where_.clear();
        next_seq_ = next_seq;
    }

    /** Insert an entry with its original sequence key (any order). */
    void
    insertRestored(ServiceId service, InstanceId id, std::uint32_t in_flight,
                   std::uint64_t seq)
    {
        EAAO_ASSERT(id < kAbsent, "instance id ", id, " out of range");
        if (service >= heaps_.size())
            heaps_.resize(service + std::size_t{1});
        if (id >= where_.size())
            where_.resize(id + 1, Where{0, kAbsent});
        EAAO_ASSERT(where_[id].pos == kAbsent, "instance ", id,
                    " indexed twice");
        std::vector<Entry> &heap = heaps_[service];
        where_[id].service = service;
        heap.emplace_back();
        siftUp(heap, static_cast<std::uint32_t>(heap.size() - 1),
               Entry{seq, in_flight, static_cast<std::uint32_t>(id)});
    }

  private:
    /** One heap entry: key (in_flight, seq), payload id. 16 bytes. */
    struct Entry
    {
        std::uint64_t seq;
        std::uint32_t in_flight;
        std::uint32_t id;
    };

    /** Where an instance's entry sits; pos kAbsent = not indexed. */
    struct Where
    {
        ServiceId service;
        std::uint32_t pos;
    };

    static constexpr std::uint32_t kAbsent = ~0u;

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.in_flight != b.in_flight)
            return a.in_flight < b.in_flight;
        return a.seq < b.seq;
    }

    /** Place @p e at hole @p i, moving it toward the root. */
    void
    siftUp(std::vector<Entry> &heap, std::uint32_t i, const Entry &e)
    {
        while (i > 0) {
            const std::uint32_t parent = (i - 1) / 4;
            if (!earlier(e, heap[parent]))
                break;
            put(heap, i, heap[parent]);
            i = parent;
        }
        put(heap, i, e);
    }

    /** Place @p e at hole @p i, moving it toward the leaves. */
    void
    siftDown(std::vector<Entry> &heap, std::uint32_t i, const Entry &e)
    {
        const std::size_t n = heap.size();
        while (true) {
            const std::size_t first = std::size_t{4} * i + 1;
            if (first >= n)
                break;
            const std::size_t end = first + 4 < n ? first + 4 : n;
            std::size_t best = first;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (earlier(heap[c], heap[best]))
                    best = c;
            }
            if (!earlier(heap[best], e))
                break;
            put(heap, i, heap[best]);
            i = static_cast<std::uint32_t>(best);
        }
        put(heap, i, e);
    }

    void
    put(std::vector<Entry> &heap, std::uint32_t i, const Entry &e)
    {
        heap[i] = e;
        where_[e.id].pos = i;
    }

    std::uint64_t next_seq_ = 1;
    std::vector<std::vector<Entry>> heaps_; //!< per service
    std::vector<Where> where_;              //!< by instance id
};

} // namespace eaao::faas

#endif // EAAO_FAAS_ROUTING_INDEX_HPP
