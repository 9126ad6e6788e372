/**
 * @file
 * Implementation of the activity probe.
 */

#include "channel/activity.hpp"

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "support/logging.hpp"

namespace eaao::channel {

ActivityProbe::ActivityProbe(faas::Platform &platform,
                             faas::InstanceId foothold,
                             const ActivityProbeConfig &cfg)
    : platform_(&platform), foothold_(foothold), cfg_(cfg)
{
    EAAO_ASSERT(platform.instanceInfo(foothold).state !=
                    faas::InstanceState::Terminated,
                "foothold instance is gone");
    if (obs::MetricsRegistry *metrics = platform.obs().metrics) {
        c_samples_ = metrics->counter("channel.activity_samples");
        c_busy_ = metrics->counter("channel.activity_busy");
    }
}

ActivitySample
ActivityProbe::sample()
{
    const hw::HostId host = platform_->oracleHostOf(foothold_);
    sim::Rng &rng = platform_->measurementRng();

    // Ground truth: requests executing right now on this host, outside
    // the foothold itself.
    std::uint32_t executing = 0;
    const auto &orch = platform_->orchestrator();
    for (std::size_t i = 0; i < orch.instanceCount(); ++i) {
        const auto &inst = orch.instance(i);
        if (inst.host != host || inst.id == foothold_ ||
            inst.state == faas::InstanceState::Terminated) {
            continue;
        }
        executing += inst.in_flight;
    }

    ActivitySample s;
    s.when = platform_->now();
    for (std::uint32_t r = 0; r < executing; ++r) {
        if (rng.bernoulli(cfg_.per_request_detect_prob))
            ++s.level;
    }
    if (rng.bernoulli(cfg_.background_rate))
        ++s.level;
    s.busy = s.level >= cfg_.busy_threshold;
    EAAO_OBS_COUNT(c_samples_, 1);
    if (s.busy)
        EAAO_OBS_COUNT(c_busy_, 1);
    return s;
}

std::vector<ActivitySample>
ActivityProbe::watch(sim::Duration interval, sim::Duration span)
{
    EAAO_ASSERT(interval.ns() > 0, "non-positive sampling interval");
    std::vector<ActivitySample> trace;
    const sim::SimTime obs_start = platform_->now();
    const sim::SimTime end = platform_->now() + span;
    while (platform_->now() < end) {
        trace.push_back(sample());
        platform_->advance(interval);
    }
    EAAO_OBS_SPAN(platform_->obs(), "channel.activity_watch", "channel",
                  obs_start, platform_->now(),
                  {obs::TraceArg::u64("foothold", foothold_),
                   obs::TraceArg::u64("samples", trace.size())});
    return trace;
}

} // namespace eaao::channel
