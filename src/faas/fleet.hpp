/**
 * @file
 * Data-center fleet: the pool of physical hosts plus the placement
 * metadata the orchestrator consults (shards, popularity ranks).
 *
 * The model follows the behaviours the paper reverse-engineered:
 *
 *  - Hosts are grouped into *shards*; an account's base hosts live in its
 *    home shard. This reproduces the naive-strategy outcomes of §5.2
 *    (zero co-location across accounts unless their shards collide).
 *  - Within a shard, hosts have a popularity order (bin-packing-style
 *    preference for warm hosts). Base-host prefixes and helper lists are
 *    both popularity-biased, which is what lets an attacker who holds
 *    the popular hosts of every shard cover nearly all victim instances.
 *  - Boot times mix an exponential spread with discrete "maintenance
 *    waves" (fleet-wide reboot campaigns); the waves create the boot-time
 *    collisions that erode fingerprint precision at large p_boot (Fig 4).
 */

#ifndef EAAO_FAAS_FLEET_HPP
#define EAAO_FAAS_FLEET_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cpu_sku.hpp"
#include "hw/host.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace eaao::faas {

/**
 * Static description of one simulated data center.
 *
 * The three presets mirror the paper's us-east1 / us-central1 / us-west1:
 * pool sizes slightly above the paper's observed lower bounds (474, 1702
 * and 199 apparent hosts, Fig. 12), so that a saturating exploration
 * discovers roughly those counts.
 */
struct DataCenterProfile
{
    std::string name = "us-east1";
    std::uint32_t host_count = 520;
    std::uint32_t shard_size = 110;

    /** Helper-list growth per hotness level (hosts per hot launch). */
    std::uint32_t helper_chunk = 65;

    /**
     * Std-dev of the per-service jitter applied to the popularity
     * order when building helper lists. Helper lists of different
     * services are therefore strongly overlapping (they share the
     * popular hosts of every shard) yet not identical — Observation 6.
     */
    double helper_order_jitter = 15.0;

    /** Std-dev of per-account jitter on the base popularity order. */
    double base_order_jitter = 3.0;

    /**
     * Placement dynamism: std-dev of *per-launch* re-jitter applied to
     * the account's base order (us-central1 is noticeably dynamic).
     * Zero means only the small baseline jitter below applies.
     */
    double per_launch_jitter = 0.0;

    /**
     * Baseline per-launch jitter present in every data center: a few
     * borderline hosts rotate in and out of the base prefix between
     * launches, producing the slight cumulative-footprint growth of
     * Fig. 7.
     */
    double base_launch_jitter = 0.7;

    /**
     * Fraction of cold placements that leak off the base hosts into
     * the helper layer. Zero in the static data centers; us-central1's
     * dynamic placement leaks noticeably, which is why even a naive
     * same-shard attack only reaches ~81% coverage there (§5.2).
     */
    double cold_spill_fraction = 0.0;

    /** Fraction of hosts booted in maintenance waves (vs spread out). */
    double wave_fraction = 0.35;

    /** Number of discrete maintenance waves in the recent past. */
    std::uint32_t wave_count = 8;

    /** Mean of the exponential uptime spread, days. */
    double uptime_mean_days = 15.0;

    /** Maximum age of a maintenance wave, days. */
    double wave_span_days = 30.0;

    /** Std-dev of boot times within one wave, seconds. */
    double wave_sigma_s = 600.0;

    /** Number of shards: host_count / shard_size, rounded up. */
    std::uint32_t
    shardCount() const
    {
        return host_count / shard_size + (host_count % shard_size != 0);
    }

    /** Paper-calibrated preset for us-east1. */
    static DataCenterProfile usEast1();
    /** Paper-calibrated preset for us-central1 (large, dynamic). */
    static DataCenterProfile usCentral1();
    /** Paper-calibrated preset for us-west1 (small). */
    static DataCenterProfile usWest1();
};

/**
 * The physical fleet of one data center.
 */
class Fleet
{
  public:
    /**
     * Build the fleet: sample SKUs, boot times, label errors, shard and
     * popularity assignments.
     *
     * @param profile Data-center description.
     * @param tsc_cfg TSC noise knobs (shared across hosts).
     * @param timing_cfg Sandbox timing-noise knobs.
     * @param epoch "Now" at construction; hosts booted before this.
     * @param rng Stream for all construction draws.
     */
    Fleet(const DataCenterProfile &profile, const hw::TscConfig &tsc_cfg,
          const hw::TimingNoiseConfig &timing_cfg, sim::SimTime epoch,
          sim::Rng &rng);

    /** Number of hosts. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(hosts_.size());
    }

    /** Access a host. */
    const hw::HostMachine &host(hw::HostId id) const;

    /**
     * The SKU of host @p id: its cpuid model string, vCPUs and memory.
     * Every host of a SKU shares this one record.
     */
    const hw::CpuSku &sku(hw::HostId id) const;

    /** Shard index of a host: hosts fill shards in id order. */
    std::uint32_t shardOf(hw::HostId id) const;

    /** Number of shards. */
    std::uint32_t shardCount() const { return shard_count_; }

    /** Hosts belonging to shard @p shard, in popularity order. */
    const std::vector<hw::HostId> &shardHosts(std::uint32_t shard) const;

    /**
     * Within-shard popularity rank of a host (0 = most popular).
     */
    std::uint32_t popularityRank(hw::HostId id) const;

    /** The SKU catalog used by this fleet. */
    const hw::SkuCatalog &catalog() const { return catalog_; }

  private:
    hw::SkuCatalog catalog_;
    std::vector<hw::HostMachine> hosts_;
    std::vector<std::uint32_t> pop_rank_;
    std::vector<std::vector<hw::HostId>> shard_hosts_;
    std::uint32_t shard_size_ = 0;
    std::uint32_t shard_count_ = 0;
};

} // namespace eaao::faas

#endif // EAAO_FAAS_FLEET_HPP
