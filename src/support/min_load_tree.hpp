/**
 * @file
 * Tournament tree over per-position load counters.
 *
 * The orchestrator keeps two kinds of tree. Placement views
 * (faas/placement_index.hpp) ask "which is the first position within
 * a prefix of this preference order whose load is minimal (and whose
 * host still has capacity)?"; re-scanning the prefix per decision made
 * placement O(prefix) with a map lookup per candidate. Routing
 * (faas/routing_index.hpp) asks "which is the first activation slot
 * carrying the minimal in-flight count, if that count is below the
 * concurrency limit?" on every request. The tree answers both in
 * O(log n) for the common case, with loads updated incrementally as
 * instances come and go.
 *
 * The tree is a perfect binary tree over the positions padded to a
 * power of two: leaf `size + i` holds position i's load, padding
 * leaves hold an "infinite" load, and each internal node holds the
 * minimum load of its subtree (4 bytes per node). Queries descend
 * left-first, so leaves are reached in position order and a later
 * leaf can only win with a strictly smaller load: the tree's answer is
 * exactly the *first* position carrying the minimal load, the host (or
 * instance) a first-strict-improvement linear scan selects, which is
 * what keeps indexed placement and routing equal to testkit's
 * brute-force references.
 */

#ifndef EAAO_SUPPORT_MIN_LOAD_TREE_HPP
#define EAAO_SUPPORT_MIN_LOAD_TREE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace eaao::support {

/**
 * Min-tournament over (load, position) keys with prefix-restricted,
 * predicate-filtered argmin queries.
 */
class MinLoadTree
{
  public:
    /** Padding load; no live-instance count reaches it. */
    static constexpr std::uint32_t kInf = ~0u;

    /** Rebuild over @p loads (position i gets loads[i]). */
    void
    assign(const std::vector<std::uint32_t> &loads)
    {
        assign(loads.size(), [&](std::size_t i) { return loads[i]; });
    }

    /** Rebuild over @p n positions, position i getting load_at(i). */
    template <typename LoadAt>
    void
    assign(std::size_t n, LoadAt &&load_at)
    {
        n_ = n;
        size_ = 1;
        while (size_ < n_)
            size_ *= 2;
        tree_.assign(n_ == 0 ? 0 : 2 * size_, kInf);
        for (std::size_t i = 0; i < n_; ++i)
            tree_[size_ + i] = load_at(i);
        for (std::size_t node = size_ - 1; node >= 1 && n_ > 0; --node)
            tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
    }

    std::size_t size() const { return n_; }

    /** The load at position @p pos. */
    std::uint32_t load(std::size_t pos) const { return tree_[size_ + pos]; }

    /**
     * Set position @p pos to @p load; O(log n). The running minimum
     * stays in a register, so each level reads only the sibling.
     */
    void
    update(std::size_t pos, std::uint32_t load)
    {
        std::size_t node = size_ + pos;
        tree_[node] = load;
        for (; node > 1; node /= 2) {
            load = std::min(load, tree_[node ^ 1]);
            tree_[node / 2] = load;
        }
    }

    /**
     * First position in [0, prefix) with minimal load among positions
     * @p accept allows, or nullopt if none qualifies. The predicate is
     * evaluated lazily during the descent: when the true minimum
     * qualifies (the common case — hosts rarely run out of capacity)
     * only O(log n) nodes are visited.
     */
    template <typename Accept>
    std::optional<std::size_t>
    minInPrefix(std::size_t prefix, Accept &&accept) const
    {
        if (n_ == 0 || prefix == 0)
            return std::nullopt;
        if (prefix > n_)
            prefix = n_;
        std::uint32_t best = kInf;
        std::size_t best_pos = 0;
        query(1, 0, size_, prefix, best, best_pos, accept);
        if (best == kInf)
            return std::nullopt;
        return best_pos;
    }

    /**
     * First position carrying the minimal load, if that load is below
     * @p bound; nullopt otherwise (and for an empty or all-padding
     * tree, since no bound exceeds kInf). One left-first descent.
     */
    std::optional<std::size_t>
    firstMinBelow(std::uint32_t bound) const
    {
        if (n_ == 0 || tree_[1] >= bound)
            return std::nullopt;
        // Every node on the way down carries the root's minimum; go
        // right only when the left child does not.
        const std::uint32_t min = tree_[1];
        std::size_t node = 1;
        while (node < size_)
            node = 2 * node + (tree_[2 * node] != min);
        return node - size_;
    }

  private:
    /**
     * Left-first descent pruned by the best accepted load so far. A
     * subtree that lies wholly beyond the prefix, or whose minimum
     * cannot beat the current best (its positions all come later, so
     * a tie loses), is never entered.
     */
    template <typename Accept>
    void
    query(std::size_t node, std::size_t l, std::size_t r,
          std::size_t prefix, std::uint32_t &best, std::size_t &best_pos,
          Accept &accept) const
    {
        if (l >= prefix || tree_[node] >= best)
            return;
        if (r - l == 1) {
            if (accept(l)) {
                best = tree_[node];
                best_pos = l;
            }
            return;
        }
        const std::size_t mid = l + (r - l) / 2;
        query(2 * node, l, mid, prefix, best, best_pos, accept);
        query(2 * node + 1, mid, r, prefix, best, best_pos, accept);
    }

    std::size_t n_ = 0;
    std::size_t size_ = 1;             //!< leaves, a power of two >= n_
    std::vector<std::uint32_t> tree_;  //!< node 1 is the root
};

} // namespace eaao::support

#endif // EAAO_SUPPORT_MIN_LOAD_TREE_HPP
