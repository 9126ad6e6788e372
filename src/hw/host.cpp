/**
 * @file
 * Implementation of the physical host model.
 */

#include "hw/host.hpp"

#include <algorithm>
#include <cmath>

namespace eaao::hw {

sim::SimTime
sampleWallClock(const TimingNoiseConfig &cfg, sim::SimTime now,
                sim::Rng &rng)
{
    const bool clean = rng.bernoulli(cfg.clean_fraction);
    const double median = clean ? cfg.clean_median_s : cfg.dirty_median_s;
    const double sigma = clean ? cfg.clean_sigma : cfg.dirty_sigma;
    const double delay_s = rng.lognormal(std::log(median), sigma);
    return now + sim::Duration::fromSecondsF(delay_s);
}

HostMachine::HostMachine(HostId id, SkuId sku_id, const CpuSku &sku,
                         sim::SimTime boot_time, double label_error_hz,
                         const TscConfig &tsc_cfg,
                         const TimingNoiseConfig &timing_cfg,
                         sim::Rng &rng)
    : id_(id), sku_id_(sku_id), label_error_hz_(label_error_hz),
      tsc_(boot_time, sku.nominal_hz, label_error_hz, tsc_cfg, rng)
{
    noisy_timer_ = rng.bernoulli(timing_cfg.noisy_timer_fraction);
    if (noisy_timer_) {
        // The paper's problematic hosts scatter by 10 kHz to a few MHz;
        // clamp the lognormal draw to that observed floor.
        freq_meas_sigma_hz_ = std::max(
            10e3,
            rng.lognormal(std::log(timing_cfg.freq_meas_noisy_median_hz),
                          timing_cfg.freq_meas_noisy_sigma));
    } else {
        freq_meas_sigma_hz_ = timing_cfg.freq_meas_clean_sigma_hz;
    }
}

void
HostMachine::reboot(sim::SimTime when, const TscConfig &tsc_cfg,
                    sim::Rng &rng)
{
    tsc_ = TscDomain(when, tsc_.nominalHz(), label_error_hz_, tsc_cfg,
                     rng);
}

} // namespace eaao::hw
