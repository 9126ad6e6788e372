/**
 * @file
 * Incremental min-load view over one host preference order.
 *
 * Wraps a support::MinLoadTree over a preference order so that the
 * orchestrator's placements find the least-loaded host of a prefix
 * without re-scanning the prefix and re-querying the per-host load
 * tables per candidate. The orchestrator keeps four kinds of view:
 *
 *  - per account, its live-instance count over the account's base
 *    order (`pickBaseHost`);
 *  - per service, the service's live-instance count over its
 *    account's base order, over its helper prefix and over its spill
 *    prefix (`pickHelperHost`, `pickSpillHost`), built at the
 *    service's first such pick.
 *
 * Loads are folded in incrementally on every instance create/terminate;
 * a view is rebuilt whenever its order itself changes (a re-jittered
 * base order, a regenerated helper or spill prefix). Host positions
 * live in a sparse HostMap, so a view costs O(order length), never
 * O(fleet).
 *
 * Selection semantics are those of a linear prefix scan: first
 * position in order carrying the minimal load, skipping hosts without
 * capacity (see min_load_tree.hpp for why the tree's argmin reproduces
 * the first-strict-improvement tie-break). testkit::referenceBaseHost,
 * referenceHelperHost and referenceSpillHost are those scans,
 * recomputed from the orchestrator's records; the `reference` oracle
 * holds each pick equal to its scan.
 */

#ifndef EAAO_FAAS_PLACEMENT_INDEX_HPP
#define EAAO_FAAS_PLACEMENT_INDEX_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/host.hpp"
#include "support/host_map.hpp"
#include "support/min_load_tree.hpp"

namespace eaao::faas {

/** Min-load view over one host preference order. */
class PlacementMinIndex
{
  public:
    /** A prefix minimum: the host and the load it was picked at. */
    struct Pick
    {
        hw::HostId host = 0;
        std::uint32_t load = 0;
    };

    /**
     * Rebuild for a (possibly re-jittered or extended) preference
     * @p order of distinct hosts. @p load_of returns the current load
     * of a host.
     */
    template <typename LoadOf>
    void
    rebuild(const std::vector<hw::HostId> &order, LoadOf &&load_of)
    {
        pos_of_host_.clear();
        for (std::size_t i = 0; i < order.size(); ++i)
            pos_of_host_.insert(order[i], static_cast<std::uint32_t>(i));
        tree_.assign(order.size(),
                     [&](std::size_t i) { return load_of(order[i]); });
    }

    /** Fold in @p host's new load (no-op for hosts off the order). */
    void
    noteLoad(hw::HostId host, std::uint32_t load)
    {
        const std::uint32_t *pos = pos_of_host_.find(host);
        if (pos != nullptr)
            tree_.update(*pos, load);
    }

    /**
     * First host of order[0..prefix) with minimal load that @p accept
     * allows, or nullopt when every prefix host is rejected. @p order
     * must be the order the view was last rebuilt for.
     */
    template <typename Accept>
    std::optional<Pick>
    pickMin(const std::vector<hw::HostId> &order, std::size_t prefix,
            Accept &&accept) const
    {
        const auto pos = tree_.minInPrefix(
            prefix, [&](std::size_t p) { return accept(order[p]); });
        if (!pos)
            return std::nullopt;
        return Pick{order[*pos], tree_.load(*pos)};
    }

  private:
    support::HostMap pos_of_host_; //!< host -> position in order
    support::MinLoadTree tree_;
};

/**
 * The pick over two views that a linear scan of
 * first_order[0..first_prefix) followed by second_order[0..second_prefix)
 * makes: the first strict minimum among accepted hosts. A host of the
 * first order therefore wins a load tie, and a host on both orders is
 * taken at its first-order position.
 */
template <typename Accept>
std::optional<hw::HostId>
pickMinAcross(const PlacementMinIndex &first,
              const std::vector<hw::HostId> &first_order,
              std::size_t first_prefix, const PlacementMinIndex &second,
              const std::vector<hw::HostId> &second_order,
              std::size_t second_prefix, Accept &&accept)
{
    const auto a = first.pickMin(first_order, first_prefix, accept);
    const auto b = second.pickMin(second_order, second_prefix, accept);
    if (a && (!b || a->load <= b->load))
        return a->host;
    if (b)
        return b->host;
    return std::nullopt;
}

} // namespace eaao::faas

#endif // EAAO_FAAS_PLACEMENT_INDEX_HPP
