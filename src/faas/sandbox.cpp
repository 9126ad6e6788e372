/**
 * @file
 * Implementation of the sandboxed host view.
 */

#include "faas/sandbox.hpp"

#include <cmath>

#include "faas/platform.hpp"
#include "support/logging.hpp"

namespace eaao::faas {

SandboxView::SandboxView(Platform &platform, InstanceId id)
    : platform_(&platform), id_(id)
{
}

ExecEnv
SandboxView::env() const
{
    return platform_->instanceInfo(id_).env;
}

const std::string &
SandboxView::cpuModelName() const
{
    // The hypervisor traps cpuid (Gen 2), or the Gen 1 mitigation masks
    // it: the guest sees a virtualized stub that reveals neither the
    // host model nor its base frequency.
    static const std::string kVirtualCpu = "Virtual CPU";
    const InstanceRecord &inst = platform_->instanceInfo(id_);
    if (inst.env == ExecEnv::Gen2 ||
        platform_->config().tsc_defense.gen1_mask_cpuid)
        return kVirtualCpu;
    return platform_->fleet().sku(inst.host).model_name;
}

TimestampSample
SandboxView::readTimestamp()
{
    const InstanceRecord &inst = platform_->instanceInfo(id_);
    EAAO_ASSERT(inst.state != InstanceState::Terminated,
                "reading a terminated instance");
    const hw::HostMachine &host = platform_->fleet().host(inst.host);
    sim::Rng &rng = platform_->measurementRng();
    const sim::SimTime now = platform_->now();

    const auto &shield = platform_->config().tsc_defense;

    TimestampSample sample;
    const bool emulated =
        (inst.env == ExecEnv::Gen1 &&
         shield.gen1 == defense::Gen1TscPolicy::TrapEmulate) ||
        (inst.env == ExecEnv::Gen2 &&
         shield.gen2 == defense::Gen2TscPolicy::OffsetAndScale);
    if (emulated) {
        // Trap-and-emulate (Gen 1) or offset+scale (Gen 2): the
        // container observes a counter that started at its own launch
        // and ticks at exactly the advertised nominal rate — neither
        // the host boot time nor the true frequency leaks. The virtual
        // epoch is arbitrary per container (sandbox setup, queueing,
        // image pulls), modeled as a per-instance skew of up to an
        // hour, so co-located instances derive unrelated "boot times".
        const double skew_s =
            static_cast<double>(sim::mix64(inst.id) %
                                3600000000000ULL) *
            1e-9;
        const double guest_uptime_s =
            (now - inst.created_at).secondsF() + skew_s;
        const double rate = host.tsc().nominalHz();
        sample.tsc = static_cast<std::uint64_t>(
            std::llround(guest_uptime_s * rate));
    } else {
        sample.tsc = host.tsc().read(now, rng);
        if (inst.env == ExecEnv::Gen2) {
            // TSC offsetting: subtract the snapshot taken at VM boot.
            sample.tsc = sample.tsc >= inst.vm_tsc_offset
                             ? sample.tsc - inst.vm_tsc_offset
                             : 0;
        }
    }
    sample.wall = hw::sampleWallClock(platform_->config().timing, now, rng);
    return sample;
}

std::vector<double>
SandboxView::measureTscFrequency(sim::Duration interval,
                                 std::uint32_t reps)
{
    EAAO_ASSERT(interval.ns() > 0, "non-positive measurement interval");
    const InstanceRecord &inst = platform_->instanceInfo(id_);
    const hw::HostMachine &host = platform_->fleet().host(inst.host);
    sim::Rng &rng = platform_->measurementRng();

    // Each repetition derives f = delta_tsc / delta_Twall. On clean
    // hosts the wall clock is computed from the same TSC (vDSO), so the
    // pairing delays cancel and the estimate is tight; on noisy-timer
    // hosts NTP rate steering / a non-TSC clocksource scatters it by
    // 10 kHz - MHz (the paper's 58-of-586 problematic hosts).
    const auto &shield = platform_->config().tsc_defense;
    const bool emulated =
        (inst.env == ExecEnv::Gen1 &&
         shield.gen1 == defense::Gen1TscPolicy::TrapEmulate) ||
        (inst.env == ExecEnv::Gen2 &&
         shield.gen2 == defense::Gen2TscPolicy::OffsetAndScale);
    // An emulated/scaled counter ticks at exactly the nominal rate, so
    // the measurement converges on the (host-unspecific) nominal value.
    const double rate =
        emulated ? host.tsc().nominalHz() : host.tsc().trueHz();

    std::vector<double> samples;
    samples.reserve(reps);
    for (std::uint32_t r = 0; r < reps; ++r) {
        platform_->advance(interval);
        samples.push_back(rate +
                          rng.normal(0.0, host.freqMeasSigmaHz()));
    }
    return samples;
}

double
SandboxView::refinedTscFrequencyHz() const
{
    const InstanceRecord &inst = platform_->instanceInfo(id_);
    EAAO_ASSERT(inst.env == ExecEnv::Gen2,
                "refined TSC frequency is only readable inside a Gen 2 "
                "guest (needs in-guest kernel access)");
    const auto &shield = platform_->config().tsc_defense;
    if (shield.gen2 == defense::Gen2TscPolicy::OffsetAndScale) {
        // With hardware TSC scaling the guest counter ticks at exactly
        // the advertised rate; the guest kernel refines to nominal.
        return platform_->fleet().host(inst.host).tsc().nominalHz();
    }
    return platform_->fleet().host(inst.host).tsc().refinedHz();
}

sim::Duration
SandboxView::timerAccessCost() const
{
    const InstanceRecord &inst = platform_->instanceInfo(id_);
    const auto &shield = platform_->config().tsc_defense;
    if (inst.env == ExecEnv::Gen1)
        return shield.gen1TimerCost();
    // Gen 2: hardware-assisted virtualization keeps rdtsc unprivileged.
    return shield.native_timer_cost;
}

} // namespace eaao::faas
