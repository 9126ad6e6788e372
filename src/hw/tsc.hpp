/**
 * @file
 * Timestamp-counter model.
 *
 * Each physical host owns one TSC domain (the paper notes TSC values are
 * synchronized across cores/sockets on the Intel platforms it observed,
 * so one counter per host suffices). The domain captures the three
 * frequency views the attack cares about:
 *
 *  - nominal_hz:  the labeled base frequency from the model string; this
 *                 is the "reported TSC frequency" of Section 4.2 method 1.
 *  - true_hz:     the physical increment rate; deviates from nominal by a
 *                 per-host label error (sub-kHz for most hosts, heavy
 *                 tail to MHz), which drives the T_boot drift of Eq. 4.2.
 *  - refined_hz:  the kernel's boot-time calibration of true_hz, rounded
 *                 to 1 kHz; per-boot calibration noise dominates the
 *                 label error, so distinct hosts rarely collide while
 *                 co-located readers always agree (Section 4.5).
 */

#ifndef EAAO_HW_TSC_HPP
#define EAAO_HW_TSC_HPP

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace eaao::hw {

/** Knobs for TSC-related randomness; defaults match DESIGN.md. */
struct TscConfig
{
    /** Fraction of hosts whose label error is in the heavy tail. */
    double label_tail_fraction = 0.05;
    /** Median |label error| of the core population, Hz. */
    double label_core_median_hz = 1200.0;
    /** Log-sigma of the core label error. */
    double label_core_sigma = 1.0;
    /** Median |label error| of the tail population, Hz. */
    double label_tail_median_hz = 30e3;
    /** Log-sigma of the tail label error (tail reaches a few MHz). */
    double label_tail_sigma = 1.6;
    /**
     * Half-width of the per-boot kernel calibration noise, Hz. The
     * calibration error is modeled uniform in [-w, +w]: spreading
     * hosts evenly over refined-frequency buckets reproduces the
     * paper's observation that on average ~2 hosts share a refined
     * value (Section 4.5).
     */
    double refine_noise_half_width_hz = 14e3;
    /** Kernel refinement granularity, Hz (Linux: 1 kHz). */
    double refine_granularity_hz = 1e3;
};

/**
 * One invariant-TSC clock domain.
 *
 * The counter resets to zero at host boot and increments at true_hz
 * irrespective of power state. Reads carry only sub-microsecond jitter;
 * the interesting noise lives in pairing the read with a wall-clock
 * sample (see hw::sampleWallClock).
 */
class TscDomain
{
  public:
    /**
     * Create a domain for a host booted at @p boot_time.
     *
     * @param nominal_hz Labeled base frequency of the host's SKU.
     * @param label_error_hz true_hz - nominal_hz for this host.
     * @param cfg Refinement noise parameters.
     * @param rng Stream for the per-boot calibration draw.
     */
    TscDomain(sim::SimTime boot_time, double nominal_hz,
              double label_error_hz, const TscConfig &cfg, sim::Rng &rng);

    /** Host boot instant (ground truth; invisible to the attacker). */
    sim::SimTime bootTime() const { return boot_time_; }

    /** Physical counting rate in Hz. */
    double trueHz() const { return true_hz_; }

    /** Labeled/reported frequency in Hz. */
    double nominalHz() const { return nominal_hz_; }

    /** Kernel-refined frequency in Hz (1 kHz granularity). */
    double refinedHz() const { return refined_hz_; }

    /**
     * Read the counter at virtual instant @p now.
     *
     * @param rng Stream for read jitter (a few hundred cycles).
     * @return Counter value (cycles since boot).
     */
    std::uint64_t read(sim::SimTime now, sim::Rng &rng) const;

    /**
     * Ideal counter value at @p now without jitter (for tests).
     */
    std::uint64_t idealRead(sim::SimTime now) const;

  private:
    sim::SimTime boot_time_;
    double nominal_hz_;
    double true_hz_;
    double refined_hz_;
};

} // namespace eaao::hw

#endif // EAAO_HW_TSC_HPP
