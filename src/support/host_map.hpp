/**
 * @file
 * Open-addressing map from host id to one 32-bit value.
 *
 * The orchestrator's per-host tables (load-table slots, per-account
 * and per-service live-instance counts, placement-view positions)
 * used to be dense vectors over the whole fleet, although a lane,
 * account or service touches only a few hundred of 100k hosts. This
 * map holds just the hosts that were inserted: a power-of-two array
 * of (host, value) cells with linear probing, kept at most half full.
 * Entries are never erased individually (a count that returns to zero
 * stays, as a zero), so there are no tombstones; clear() empties the
 * map but keeps its capacity for the next window.
 *
 * Iteration order is never observable: callers that need an order
 * (the load table's first-touch order) keep it themselves.
 */

#ifndef EAAO_SUPPORT_HOST_MAP_HPP
#define EAAO_SUPPORT_HOST_MAP_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace eaao::support {

/** Sparse host -> u32 map (see the file comment). */
class HostMap
{
  public:
    /** The value for @p host, or nullptr when it was never inserted. */
    const std::uint32_t *
    find(std::uint32_t host) const
    {
        if (cells_.empty())
            return nullptr;
        for (std::size_t i = slotOf(host);; i = (i + 1) & mask()) {
            const Cell &c = cells_[i];
            if (c.host == host)
                return &c.value;
            if (c.host == kEmpty)
                return nullptr;
        }
    }

    /** The value for @p host, 0 when absent. */
    std::uint32_t
    get(std::uint32_t host) const
    {
        const std::uint32_t *v = find(host);
        return v == nullptr ? 0 : *v;
    }

    /**
     * The value for @p host, inserting @p init first when absent. The
     * reference stays valid until the next insertion.
     */
    std::uint32_t &
    at(std::uint32_t host, std::uint32_t init = 0)
    {
        if (2 * (size_ + 1) > cells_.size())
            grow();
        for (std::size_t i = slotOf(host);; i = (i + 1) & mask()) {
            Cell &c = cells_[i];
            if (c.host == host)
                return c.value;
            if (c.host == kEmpty) {
                c.host = host;
                c.value = init;
                ++size_;
                return c.value;
            }
        }
    }

    /**
     * Insert @p host with @p value; false (and no change) when the
     * host is already present.
     */
    bool
    insert(std::uint32_t host, std::uint32_t value)
    {
        const std::size_t before = size_;
        at(host, value);
        return size_ != before;
    }

    /** Drop every entry, keeping the capacity. */
    void
    clear()
    {
        if (size_ != 0)
            std::fill(cells_.begin(), cells_.end(), Cell{});
        size_ = 0;
    }

  private:
    static constexpr std::uint32_t kEmpty = ~0u;

    struct Cell
    {
        std::uint32_t host = kEmpty;
        std::uint32_t value = 0;
    };

    std::size_t mask() const { return cells_.size() - 1; }

    /** Fibonacci hash: the top bits of host * 2^64/phi. */
    std::size_t
    slotOf(std::uint32_t host) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(host) * 0x9e3779b97f4a7c15ULL) >>
            shift_);
    }

    void
    grow()
    {
        std::vector<Cell> old(std::max<std::size_t>(16, 2 * cells_.size()));
        old.swap(cells_);
        shift_ = 64;
        for (std::size_t n = cells_.size(); n > 1; n >>= 1)
            --shift_;
        for (const Cell &c : old) {
            if (c.host == kEmpty)
                continue;
            std::size_t i = slotOf(c.host);
            while (cells_[i].host != kEmpty)
                i = (i + 1) & mask();
            cells_[i] = c;
        }
    }

    std::vector<Cell> cells_;
    std::size_t size_ = 0;
    unsigned shift_ = 64; //!< 64 - log2(cells_.size())
};

} // namespace eaao::support

#endif // EAAO_SUPPORT_HOST_MAP_HPP
