/**
 * @file
 * Sandboxed view of the host: what an attacker program running inside a
 * container instance can actually observe.
 *
 * Gen 1 (gVisor-style): system calls are emulated and host metadata is
 * hidden, but unprivileged instructions hit real hardware — cpuid shows
 * the host CPU model and rdtsc reads the host's invariant TSC.
 *
 * Gen 2 (lightweight VM): cpuid is trapped (no host model), the TSC is
 * offset so it appears to start at VM boot, but the counter still ticks
 * at the host's true rate and the kernel-refined host TSC frequency is
 * exported to the guest for timekeeping (readable with in-guest root).
 */

#ifndef EAAO_FAAS_SANDBOX_HPP
#define EAAO_FAAS_SANDBOX_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "faas/types.hpp"
#include "sim/time.hpp"

namespace eaao::faas {

class Platform;

/** An rdtsc read paired with a clock_gettime sample. */
struct TimestampSample
{
    std::uint64_t tsc = 0;    //!< counter value the guest observed
    sim::SimTime wall;        //!< wall-clock value returned by the OS
};

/**
 * Handle through which attacker code interacts with one instance's
 * sandboxed environment.
 */
class SandboxView
{
  public:
    SandboxView(Platform &platform, InstanceId id);

    /** The instance this view belongs to. */
    InstanceId instanceId() const { return id_; }

    /** Execution environment generation. */
    ExecEnv env() const;

    /**
     * CPU model string via cpuid. Gen 1 reveals the host model (with
     * its labeled base frequency); Gen 2, or a Gen 1 sandbox whose
     * cpuid is masked, returns the "Virtual CPU" stub. The reference is
     * to the fleet's SKU catalog or to a static string, so it stays
     * valid as long as the platform does; copy it to keep it longer.
     */
    const std::string &cpuModelName() const;

    /**
     * Read rdtsc and clock_gettime back-to-back.
     *
     * The wall value carries the sandbox's pairing-delay noise; in
     * Gen 2 the tsc value is offset to the VM's boot.
     */
    TimestampSample readTimestamp();

    /**
     * Method-2 frequency measurement (Section 4.2): read the TSC twice
     * @p interval apart, @p reps times, deriving one frequency sample
     * per repetition. Advances virtual time by reps * interval.
     *
     * On ~10% of hosts ("noisy timers") the samples scatter by
     * 10 kHz - MHz; elsewhere they are tight (<~100 Hz).
     */
    std::vector<double> measureTscFrequency(sim::Duration interval,
                                            std::uint32_t reps);

    /**
     * The kernel-refined host TSC frequency (1 kHz granularity).
     * Only accessible in Gen 2, where the guest kernel exposes it;
     * asserts on Gen 1 (the sandboxed container cannot reach it).
     * Under hardware TSC scaling this returns the (useless) nominal
     * rate instead of the host's true refined frequency.
     */
    double refinedTscFrequencyHz() const;

    /**
     * Cost of one high-precision timer access in this sandbox. Native
     * rdtsc is ~25 ns; under the Gen 1 trap-and-emulate mitigation the
     * kernel round-trip raises it by ~50x (Section 6).
     */
    sim::Duration timerAccessCost() const;

  private:
    Platform *platform_;
    InstanceId id_;
};

} // namespace eaao::faas

#endif // EAAO_FAAS_SANDBOX_HPP
