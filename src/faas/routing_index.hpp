/**
 * @file
 * Incremental request-routing index.
 *
 * `routeRequest` used to scan a service's whole active list per
 * request to find the least-loaded instance with spare concurrency —
 * O(active instances) per request, the dominant cost of request-heavy
 * campaigns. This index keeps one support::MinLoadTree per service
 * over *activation slots*: an instance takes its service's next slot
 * when it activates, the slot's leaf holds its `in_flight`, and a
 * position vector indexed by instance id finds the slot again. An
 * `in_flight` change or a deactivation is one leaf update, and the
 * least-loaded routable instance is one left-first descent. Nothing
 * is allocated per request. Callers name the instance's service, so
 * the position vector holds only a 4-byte slot per instance id.
 *
 * A deactivated instance leaves a vacant slot (padding load). When a
 * service's slot table is full, its live slots are renumbered, in
 * order, into a table twice the live count: each compaction costs
 * O(live) and leaves as many free slots, so activation stays
 * amortized O(1). Table storage is kept across restores.
 *
 * Determinism: a linear scan (testkit::referenceWarmTarget) picks the
 * *first* instance in active-list order among those with the minimal
 * `in_flight`. An instance's position in the active list is fixed at
 * activation (entries are only appended and erased, never reordered),
 * so a monotonically increasing activation sequence number reproduces
 * the list order exactly. Slots are handed out in that same order and
 * compaction never reorders them, so slot order is `seq` order, and
 * the tree's first minimal leaf is the first instance with the minimal
 * `in_flight` — the instance the scan finds, byte for byte. Vacancies
 * and table sizes never win a descent, so the answer does not depend
 * on the slot layout either. `seq` is what a checkpoint persists
 * (`InstanceRecord::route_seq`); restore() re-lays the slots out in
 * `seq` order from Active instances given in any order.
 */

#ifndef EAAO_FAAS_ROUTING_INDEX_HPP
#define EAAO_FAAS_ROUTING_INDEX_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "faas/types.hpp"
#include "support/logging.hpp"
#include "support/min_load_tree.hpp"

namespace eaao::faas {

/** Per-service least-loaded tournaments over activation slots. */
class RoutingIndex
{
  public:
    /** An Active instance as a checkpoint restores it. */
    struct Restored
    {
        ServiceId service;
        InstanceId id;
        std::uint32_t in_flight;
        std::uint64_t seq; //!< its persisted activation key
    };

    /** Register a newly activated instance; returns its sequence key. */
    std::uint64_t
    add(ServiceId service, InstanceId id, std::uint32_t in_flight)
    {
        place(service, id, in_flight);
        return next_seq_++;
    }

    /** Re-key indexed instance @p id of @p service after its
     *  in_flight changed. */
    void
    reindex(ServiceId service, InstanceId id, std::uint32_t in_flight)
    {
        pools_[service].tree.update(slot_[id], in_flight);
    }

    /** Drop indexed instance @p id of @p service (it is deactivating). */
    void
    remove(ServiceId service, InstanceId id)
    {
        std::uint32_t &slot = slot_[id];
        EAAO_ASSERT(slot != kAbsent, "instance ", id, " is not indexed");
        Pool &pool = pools_[service];
        pool.tree.update(slot, support::MinLoadTree::kInf);
        --pool.live;
        slot = kAbsent;
    }

    /**
     * Least-loaded active instance of @p service with spare
     * concurrency under @p max_concurrency, or kNoInstance.
     */
    InstanceId
    leastLoaded(ServiceId service, std::uint32_t max_concurrency) const
    {
        if (service >= pools_.size())
            return kNoInstance;
        const Pool &pool = pools_[service];
        const std::optional<std::size_t> slot =
            pool.tree.firstMinBelow(max_concurrency);
        return slot ? pool.ids[*slot] : kNoInstance;
    }

    /** Indexed instances across all services. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Pool &pool : pools_)
            n += pool.live;
        return n;
    }

    /** Slot-table compactions @p service has gone through. */
    std::uint64_t
    compactions(ServiceId service) const
    {
        return service < pools_.size() ? pools_[service].compactions : 0;
    }

    /** Next activation sequence key (checkpoint capture). */
    std::uint64_t nextSeq() const { return next_seq_; }

    /**
     * Checkpoint restore: index exactly the instances in @p active
     * (any order; sorted here by service and key) with @p next_seq as
     * the next activation key. Table storage is kept.
     */
    void
    restore(std::uint64_t next_seq, std::vector<Restored> &active)
    {
        for (Pool &pool : pools_) {
            pool.ids.clear();
            pool.tree.assign(0, [](std::size_t) { return 0u; });
            pool.live = 0;
        }
        slot_.clear();
        next_seq_ = next_seq;
        std::sort(active.begin(), active.end(),
                  [](const Restored &a, const Restored &b) {
                      return std::tie(a.service, a.seq, a.id) <
                             std::tie(b.service, b.seq, b.id);
                  });
        for (const Restored &r : active)
            place(r.service, r.id, r.in_flight);
    }

  private:
    /** One service's slot table and its tournament. */
    struct Pool
    {
        support::MinLoadTree tree;      //!< leaf = a slot's in_flight
        std::vector<std::uint32_t> ids; //!< instance id by slot in use
        std::uint32_t live = 0;         //!< slots not vacant
        std::uint64_t compactions = 0;
    };

    static constexpr std::uint32_t kAbsent = ~0u; //!< not indexed
    /** Smallest slot table, so small pools do not compact per add. */
    static constexpr std::size_t kMinSlots = 4;

    /** Give @p id its service's next slot. */
    void
    place(ServiceId service, InstanceId id, std::uint32_t in_flight)
    {
        EAAO_ASSERT(id < kAbsent, "instance id ", id, " out of range");
        if (service >= pools_.size())
            pools_.resize(service + std::size_t{1});
        if (id >= slot_.size())
            slot_.resize(id + 1, kAbsent);
        EAAO_ASSERT(slot_[id] == kAbsent, "instance ", id, " indexed twice");
        Pool &pool = pools_[service];
        if (pool.ids.size() == pool.tree.size())
            compact(pool);
        const auto slot = static_cast<std::uint32_t>(pool.ids.size());
        pool.ids.push_back(static_cast<std::uint32_t>(id));
        pool.tree.update(slot, in_flight);
        ++pool.live;
        slot_[id] = slot;
    }

    /** Renumber @p pool's live slots, in order, into a table twice
     *  their count. */
    void
    compact(Pool &pool)
    {
        loads_.clear();
        for (std::size_t s = 0; s < pool.ids.size(); ++s) {
            const std::uint32_t load = pool.tree.load(s);
            if (load == support::MinLoadTree::kInf)
                continue;
            const std::uint32_t id = pool.ids[s];
            slot_[id] = static_cast<std::uint32_t>(loads_.size());
            pool.ids[loads_.size()] = id;
            loads_.push_back(load);
        }
        pool.ids.resize(loads_.size());
        pool.tree.assign(std::max(2 * loads_.size(), kMinSlots),
                         [this](std::size_t s) {
                             return s < loads_.size()
                                        ? loads_[s]
                                        : support::MinLoadTree::kInf;
                         });
        ++pool.compactions;
    }

    std::uint64_t next_seq_ = 1;
    std::vector<Pool> pools_;           //!< per service
    std::vector<std::uint32_t> slot_;   //!< by instance id
    std::vector<std::uint32_t> loads_;  //!< compaction scratch
};

} // namespace eaao::faas

#endif // EAAO_FAAS_ROUTING_INDEX_HPP
