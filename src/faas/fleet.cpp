/**
 * @file
 * Implementation of the data-center fleet.
 */

#include "faas/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "sim/distributions.hpp"
#include "support/logging.hpp"

namespace eaao::faas {

DataCenterProfile
DataCenterProfile::usEast1()
{
    DataCenterProfile p;
    p.name = "us-east1";
    p.host_count = 520;
    p.shard_size = 110;
    p.helper_chunk = 55;
    p.per_launch_jitter = 0.0;
    return p;
}

DataCenterProfile
DataCenterProfile::usCentral1()
{
    DataCenterProfile p;
    p.name = "us-central1";
    p.host_count = 1850;
    p.shard_size = 110;
    p.helper_chunk = 280;
    p.per_launch_jitter = 70.0; // noticeably dynamic placement (§5.1)
    p.cold_spill_fraction = 0.15;
    return p;
}

DataCenterProfile
DataCenterProfile::usWest1()
{
    DataCenterProfile p;
    p.name = "us-west1";
    p.host_count = 210;
    p.shard_size = 105;
    p.helper_chunk = 20;
    p.per_launch_jitter = 0.0;
    return p;
}

Fleet::Fleet(const DataCenterProfile &profile, const hw::TscConfig &tsc_cfg,
             const hw::TimingNoiseConfig &timing_cfg, sim::SimTime epoch,
             sim::Rng &rng)
{
    const std::uint32_t n = profile.host_count;
    EAAO_ASSERT(n > 0, "empty fleet");
    EAAO_ASSERT(profile.shard_size > 0, "zero shard size");

    shard_count_ = profile.shardCount();
    shard_hosts_.resize(shard_count_);
    hosts_.reserve(n);
    shard_of_.resize(n);
    pop_rank_.resize(n);

    // Maintenance-wave instants in the recent past.
    std::vector<double> wave_ages_s;
    for (std::uint32_t w = 0; w < profile.wave_count; ++w) {
        wave_ages_s.push_back(
            rng.uniform(0.5, profile.wave_span_days) * 86400.0);
    }

    const sim::SignedLogNormalMixture label_error{
        tsc_cfg.label_tail_fraction, tsc_cfg.label_core_median_hz,
        tsc_cfg.label_core_sigma, tsc_cfg.label_tail_median_hz,
        tsc_cfg.label_tail_sigma};

    for (std::uint32_t i = 0; i < n; ++i) {
        // SKU: pick per shard so a shard is moderately homogeneous, with
        // some mixing — affects the CPU-model component of fingerprints.
        const std::uint32_t shard = i / profile.shard_size;
        const std::uint64_t shard_seed = sim::mix64(shard * 2654435761ULL);
        hw::SkuId sku_id;
        if (rng.bernoulli(0.75)) {
            sku_id = static_cast<hw::SkuId>(shard_seed % catalog_.size());
        } else {
            sku_id = static_cast<hw::SkuId>(
                rng.uniformInt(static_cast<std::uint64_t>(
                    catalog_.size())));
        }

        // Boot time: maintenance wave vs exponential spread.
        double age_s;
        if (rng.bernoulli(profile.wave_fraction)) {
            const auto w = static_cast<std::size_t>(
                rng.uniformInt(static_cast<std::uint64_t>(
                    wave_ages_s.size())));
            age_s = wave_ages_s[w] + rng.normal(0.0, profile.wave_sigma_s);
            age_s = std::max(age_s, 3600.0);
        } else {
            age_s = 3600.0 + rng.exponential(
                                 profile.uptime_mean_days * 86400.0);
        }
        const sim::SimTime boot =
            epoch - sim::Duration::fromSecondsF(age_s);

        hosts_.emplace_back(static_cast<hw::HostId>(i), sku_id,
                            catalog_.get(sku_id), boot,
                            label_error.sample(rng), tsc_cfg, timing_cfg,
                            rng);
        shard_of_[i] = shard;
        shard_hosts_[shard].push_back(static_cast<hw::HostId>(i));
    }

    // Popularity: a random permutation within each shard defines the
    // rank order the orchestrator's bin-packing preference follows.
    for (auto &members : shard_hosts_) {
        std::vector<std::size_t> order(members.size());
        for (std::size_t k = 0; k < members.size(); ++k)
            order[k] = k;
        sim::shuffle(rng, order);
        std::vector<hw::HostId> reordered(members.size());
        for (std::size_t k = 0; k < members.size(); ++k)
            reordered[k] = members[order[k]];
        members = std::move(reordered);
        for (std::size_t k = 0; k < members.size(); ++k)
            pop_rank_[members[k]] = static_cast<std::uint32_t>(k);
    }
}

hw::HostMachine &
Fleet::host(hw::HostId id)
{
    EAAO_ASSERT(id < hosts_.size(), "bad host id ", id);
    return hosts_[id];
}

const hw::HostMachine &
Fleet::host(hw::HostId id) const
{
    EAAO_ASSERT(id < hosts_.size(), "bad host id ", id);
    return hosts_[id];
}

std::uint32_t
Fleet::shardOf(hw::HostId id) const
{
    EAAO_ASSERT(id < shard_of_.size(), "bad host id ", id);
    return shard_of_[id];
}

const std::vector<hw::HostId> &
Fleet::shardHosts(std::uint32_t shard) const
{
    EAAO_ASSERT(shard < shard_hosts_.size(), "bad shard ", shard);
    return shard_hosts_[shard];
}

std::uint32_t
Fleet::popularityRank(hw::HostId id) const
{
    EAAO_ASSERT(id < pop_rank_.size(), "bad host id ", id);
    return pop_rank_[id];
}

} // namespace eaao::faas
