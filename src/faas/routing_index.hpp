/**
 * @file
 * Incremental request-routing index.
 *
 * `routeRequest` used to scan a service's whole active list per
 * request to find the least-loaded instance with spare concurrency —
 * O(active instances) per request, the dominant cost of request-heavy
 * campaigns. This index keeps every active instance in one ordered set
 * keyed by `(service, in_flight, activation seq)`, so the least-loaded
 * routable instance of a service is a single lower_bound away.
 *
 * Determinism: a linear scan (testkit::referenceWarmTarget) picks the
 * *first* instance in active-list order among those with the minimal
 * `in_flight`. An instance's position in the active list is fixed at
 * activation (entries are only appended and erased, never reordered),
 * so a monotonically increasing activation sequence number reproduces
 * the list order exactly — the set's `(in_flight, seq)` minimum is the
 * same instance the scan finds, byte for byte.
 */

#ifndef EAAO_FAAS_ROUTING_INDEX_HPP
#define EAAO_FAAS_ROUTING_INDEX_HPP

#include <cstdint>
#include <set>
#include <tuple>

#include "faas/types.hpp"

namespace eaao::faas {

/** Ordered view of active instances for O(log) least-loaded routing. */
class RoutingIndex
{
  public:
    struct Entry
    {
        ServiceId service = 0;
        std::uint32_t in_flight = 0;
        std::uint64_t seq = 0;
        InstanceId id = kNoInstance; //!< payload, not part of the key
    };

    struct Less
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return std::tie(a.service, a.in_flight, a.seq) <
                   std::tie(b.service, b.in_flight, b.seq);
        }
    };

    /** Register a newly activated instance; returns its sequence key. */
    std::uint64_t
    add(ServiceId service, InstanceId id, std::uint32_t in_flight)
    {
        const std::uint64_t seq = next_seq_++;
        set_.insert(Entry{service, in_flight, seq, id});
        return seq;
    }

    /** Re-key an instance after its in_flight count changed. */
    void
    reindex(ServiceId service, InstanceId id, std::uint64_t seq,
            std::uint32_t old_in_flight, std::uint32_t new_in_flight)
    {
        set_.erase(Entry{service, old_in_flight, seq, id});
        set_.insert(Entry{service, new_in_flight, seq, id});
    }

    /** Drop a deactivating instance. */
    void
    remove(ServiceId service, std::uint32_t in_flight, std::uint64_t seq)
    {
        set_.erase(Entry{service, in_flight, seq, kNoInstance});
    }

    /**
     * Least-loaded active instance of @p service with spare
     * concurrency under @p max_concurrency, or kNoInstance.
     */
    InstanceId
    leastLoaded(ServiceId service, std::uint32_t max_concurrency) const
    {
        const auto it = set_.lower_bound(Entry{service, 0, 0, 0});
        if (it == set_.end() || it->service != service ||
            it->in_flight >= max_concurrency)
            return kNoInstance;
        return it->id;
    }

    std::size_t size() const { return set_.size(); }

    /** Next activation sequence key (checkpoint capture). */
    std::uint64_t nextSeq() const { return next_seq_; }

    /**
     * Reset to an empty set with @p next_seq as the next activation
     * key; entries are re-inserted from restored instance records via
     * insertRestored() (checkpoint restore).
     */
    void
    resetForRestore(std::uint64_t next_seq)
    {
        set_.clear();
        next_seq_ = next_seq;
    }

    /** Re-insert an entry with its original sequence key. */
    void
    insertRestored(ServiceId service, InstanceId id, std::uint32_t in_flight,
                   std::uint64_t seq)
    {
        set_.insert(Entry{service, in_flight, seq, id});
    }

  private:
    std::uint64_t next_seq_ = 1;
    std::set<Entry, Less> set_;
};

} // namespace eaao::faas

#endif // EAAO_FAAS_ROUTING_INDEX_HPP
