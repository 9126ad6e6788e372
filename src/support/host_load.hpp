/**
 * @file
 * Sparse host-load table: capacity in use on the hosts touched so far.
 *
 * The orchestrator's per-host capacity bookkeeping (vcpus and memory
 * in use) keeps one entry per host it has touched, in first-touch
 * order, as three parallel columns (host, vcpus, memory) behind a
 * HostMap from host id to entry. A host that was never touched reads
 * as zero load. Entries are kept when their load returns to zero.
 *
 * The same table serves three roles: the standalone orchestrator's
 * whole truth, a sharded lane's *delta ledger* and the sharded
 * platform's committed table (docs/sharding.md). Each lane accumulates
 * its capacity changes locally during a window, and the barrier drains
 * every lane's delta into the committed table in canonical lane order.
 * Touch order is deterministic (it is the lane's own execution order),
 * so the fold, including the floating-point sums reported in the
 * exchange digest, is reproducible bit-for-bit.
 */

#ifndef EAAO_SUPPORT_HOST_LOAD_HPP
#define EAAO_SUPPORT_HOST_LOAD_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/host_map.hpp"

namespace eaao::support {

/** Summary of one drained delta (for the window exchange digest). */
struct HostLoadFold
{
    std::size_t hosts = 0;  //!< distinct hosts folded
    double vcpus = 0.0;     //!< signed vcpu delta, summed in touch order
    double mem_gb = 0.0;    //!< signed memory delta, summed in touch order
};

/** Per-host (vcpus, memory) load over the touched hosts only. */
class HostLoadTable
{
  public:
    void
    add(std::uint32_t host, double vcpus, double mem_gb)
    {
        const std::uint32_t e = entryOf(host);
        vcpus_[e] += vcpus;
        mem_gb_[e] += mem_gb;
    }

    void
    sub(std::uint32_t host, double vcpus, double mem_gb)
    {
        const std::uint32_t e = entryOf(host);
        vcpus_[e] -= vcpus;
        mem_gb_[e] -= mem_gb;
    }

    double
    vcpus(std::uint32_t host) const
    {
        const std::uint32_t *e = index_.find(host);
        return e == nullptr ? 0.0 : vcpus_[*e];
    }

    double
    memGb(std::uint32_t host) const
    {
        const std::uint32_t *e = index_.find(host);
        return e == nullptr ? 0.0 : mem_gb_[*e];
    }

    /** Entries, i.e. distinct hosts touched since the last drain. */
    std::size_t size() const { return hosts_.size(); }

    /** Entry columns, in first-touch order (checkpoint capture). */
    const std::vector<std::uint32_t> &hosts() const { return hosts_; }
    const std::vector<double> &vcpusColumn() const { return vcpus_; }
    const std::vector<double> &memColumn() const { return mem_gb_; }

    /**
     * Drain this table into @p into (nullptr discards it: the
     * dropped-exchange fault path) and empty it. Entries fold in
     * first-touch order, zero entries included; each host folds exactly
     * once, so cross-host order only affects the digest sums, which
     * touch order keeps deterministic.
     */
    HostLoadFold
    drain(HostLoadTable *into)
    {
        HostLoadFold fold;
        for (std::size_t e = 0; e < hosts_.size(); ++e) {
            fold.vcpus += vcpus_[e];
            fold.mem_gb += mem_gb_[e];
            if (into != nullptr)
                into->add(hosts_[e], vcpus_[e], mem_gb_[e]);
        }
        fold.hosts = hosts_.size();
        clear();
        return fold;
    }

    void
    clear()
    {
        index_.clear();
        hosts_.clear();
        vcpus_.clear();
        mem_gb_.clear();
    }

    /**
     * Append a captured entry (checkpoint restore, in captured order).
     * False, with no change, when @p host already has an entry.
     */
    bool
    restoreEntry(std::uint32_t host, double vcpus, double mem_gb)
    {
        if (!index_.insert(host, static_cast<std::uint32_t>(hosts_.size())))
            return false;
        hosts_.push_back(host);
        vcpus_.push_back(vcpus);
        mem_gb_.push_back(mem_gb);
        return true;
    }

  private:
    std::uint32_t
    entryOf(std::uint32_t host)
    {
        const auto next = static_cast<std::uint32_t>(hosts_.size());
        const std::uint32_t e = index_.at(host, next);
        if (e == next) {
            hosts_.push_back(host);
            vcpus_.push_back(0.0);
            mem_gb_.push_back(0.0);
        }
        return e;
    }

    HostMap index_;                 //!< host -> entry
    std::vector<std::uint32_t> hosts_;
    std::vector<double> vcpus_;
    std::vector<double> mem_gb_;
};

} // namespace eaao::support

#endif // EAAO_SUPPORT_HOST_LOAD_HPP
