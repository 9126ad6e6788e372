/**
 * @file
 * Physical host model.
 *
 * A HostMachine holds only what differs between hosts: its SKU id, its
 * TSC domain (rdtsc / rdtscp), its clock crystal's label error, and the
 * quality of method-2 frequency measurement on it. What a SKU shares
 * (the cpuid model string, vCPUs, memory) lives once in the SkuCatalog,
 * and the sandbox's wall-clock noise is one fleet-wide
 * TimingNoiseConfig, so a host stays a small trivially copyable record.
 */

#ifndef EAAO_HW_HOST_HPP
#define EAAO_HW_HOST_HPP

#include <cstdint>
#include <type_traits>

#include "hw/cpu_sku.hpp"
#include "hw/tsc.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace eaao::hw {

/** Identifier of a physical host within a data center. */
using HostId = std::uint32_t;

/** Noise knobs for sandboxed timing operations; defaults per DESIGN.md. */
struct TimingNoiseConfig
{
    /**
     * Probability that a wall-clock sample is "clean" (only vDSO-scale
     * pairing delay between rdtsc and the timestamp acquisition).
     */
    double clean_fraction = 0.80;
    /** Median clean pairing delay, seconds. */
    double clean_median_s = 8e-6;
    /** Log-sigma of the clean delay. */
    double clean_sigma = 1.0;
    /** Median dirty delay (sentry scheduling / preemption), seconds. */
    double dirty_median_s = 2e-3;
    /** Log-sigma of the dirty delay. */
    double dirty_sigma = 1.2;

    /** Fraction of hosts with unstable method-2 frequency measurement. */
    double noisy_timer_fraction = 0.10;
    /** Method-2 per-measurement sigma on clean hosts, Hz. */
    double freq_meas_clean_sigma_hz = 30.0;
    /** Median method-2 sigma on noisy hosts, Hz. */
    double freq_meas_noisy_median_hz = 60e3;
    /** Log-sigma of the noisy-host method-2 sigma. */
    double freq_meas_noisy_sigma = 1.3;
};

/**
 * Sample the sandbox wall clock, paired with an rdtsc at @p now.
 *
 * Returns the timestamp the attacker's clock_gettime would deliver: the
 * true instant plus a non-negative pairing delay drawn from @p cfg's
 * clean/dirty mixture. This delay is the dominant noise source in the
 * derived T_boot and shapes the Fig. 4 recall curve.
 */
sim::SimTime sampleWallClock(const TimingNoiseConfig &cfg,
                             sim::SimTime now, sim::Rng &rng);

/**
 * One physical machine in the fleet.
 */
class HostMachine
{
  public:
    /**
     * Construct a host.
     *
     * @param id Host identifier.
     * @param sku_id SKU index into the shared catalog.
     * @param sku The SKU record (for the nominal frequency).
     * @param boot_time When the host (last) booted.
     * @param label_error_hz Per-host true-vs-labeled frequency error.
     * @param tsc_cfg TSC refinement noise knobs.
     * @param timing_cfg Sandbox timing-noise knobs (noisy-timer draw).
     * @param rng Stream used for per-boot draws (refinement, noisy flag).
     */
    HostMachine(HostId id, SkuId sku_id, const CpuSku &sku,
                sim::SimTime boot_time, double label_error_hz,
                const TscConfig &tsc_cfg,
                const TimingNoiseConfig &timing_cfg, sim::Rng &rng);

    /** Host identifier. */
    HostId id() const { return id_; }

    /** SKU index into the catalog (model string, vCPUs, memory). */
    SkuId skuId() const { return sku_id_; }

    /** The TSC domain (current boot epoch). */
    const TscDomain &tsc() const { return tsc_; }

    /** Whether method-2 frequency measurement is unstable here. */
    bool noisyTimer() const { return noisy_timer_; }

    /** Per-measurement sigma of method-2 frequency estimation, Hz. */
    double freqMeasSigmaHz() const { return freq_meas_sigma_hz_; }

    /**
     * Reboot the host at @p when: resets the TSC to zero and re-runs the
     * kernel frequency refinement. The label error is a property of the
     * physical clock crystal and persists across reboots.
     */
    void reboot(sim::SimTime when, const TscConfig &tsc_cfg,
                sim::Rng &rng);

  private:
    HostId id_;
    SkuId sku_id_;
    double label_error_hz_;
    TscDomain tsc_;
    double freq_meas_sigma_hz_ = 0.0;
    bool noisy_timer_ = false;
};

// A 100k-host fleet is one flat array of these: one cache line each,
// copied with memcpy, nothing on the heap.
static_assert(sizeof(HostMachine) <= 64);
static_assert(std::is_trivially_copyable_v<HostMachine>);

} // namespace eaao::hw

#endif // EAAO_HW_HOST_HPP
