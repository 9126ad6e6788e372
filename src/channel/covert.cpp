/**
 * @file
 * Implementation of the covert channels.
 */

#include "channel/covert.hpp"

#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "support/flat_map.hpp"
#include "support/logging.hpp"

namespace eaao::channel {

RngChannel::RngChannel(faas::Platform &platform,
                       const RngChannelConfig &cfg)
    : platform_(&platform), cfg_(cfg)
{
    EAAO_ASSERT(cfg_.detect_min <= cfg_.trials,
                "detection threshold exceeds trial count");
    if (obs::MetricsRegistry *metrics = platform.obs().metrics) {
        c_group_tests_ = metrics->counter("channel.group_tests");
        h_error_rate_ = metrics->histogram("channel.error_rate",
                                           obs::errorRateBuckets());
    }
}

sim::Duration
RngChannel::testDuration() const
{
    return sim::Duration::nanos(cfg_.trial_duration.ns() *
                                static_cast<std::int64_t>(cfg_.trials));
}

std::vector<GroupTestResult>
RngChannel::runConcurrent(
    const std::vector<std::vector<faas::InstanceId>> &groups,
    std::uint32_t m)
{
    EAAO_ASSERT(m >= 2, "contention threshold must be at least 2");

    // Pressure map: how many instances (across all concurrent groups)
    // hammer the RNG of each host.
    std::unordered_map<hw::HostId, std::uint32_t> pressure;
    for (const auto &group : groups) {
        for (const faas::InstanceId id : group) {
            EAAO_ASSERT(platform_->instanceInfo(id).state ==
                            faas::InstanceState::Active,
                        "covert-channel test needs a live connection");
            ++pressure[platform_->oracleHostOf(id)];
        }
    }

    // Provider-side detection: hosts with >= 2 simultaneous
    // pressurers show a contention burst.
    if (detector_ != nullptr) {
        // Sorted-vector map: the detector's burst log must not inherit
        // hash-table iteration order (it is observable state).
        support::SmallFlatMap<hw::HostId, std::vector<faas::AccountId>>
            parties;
        for (const auto &group : groups) {
            for (const faas::InstanceId id : group) {
                parties[platform_->oracleHostOf(id)].push_back(
                    platform_->instanceInfo(id).account);
            }
        }
        for (const auto &[host, accounts] : parties) {
            if (accounts.size() >= 2) {
                detector_->recordBurst(platform_->now(), host, accounts,
                                       cfg_.trials);
            }
        }
    }

    sim::Rng &rng = platform_->measurementRng();
    std::vector<GroupTestResult> results(groups.size());
    const sim::SimTime obs_start = platform_->now();
    std::size_t obs_instances = 0;

    for (std::size_t g = 0; g < groups.size(); ++g) {
        results[g].positive.assign(groups[g].size(), false);
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            const hw::HostId host =
                platform_->oracleHostOf(groups[g][i]);
            const std::uint32_t co_units = pressure[host];
            std::uint32_t hits = 0;
            for (std::uint32_t t = 0; t < cfg_.trials; ++t) {
                // The instance's own unit is always visible; each other
                // unit is observed with high probability; background
                // activity occasionally injects spurious units.
                std::uint32_t units = 1;
                for (std::uint32_t u = 1; u < co_units; ++u) {
                    if (rng.bernoulli(cfg_.unit_detect_prob))
                        ++units;
                }
                if (rng.bernoulli(cfg_.background_prob))
                    units += 1 + static_cast<std::uint32_t>(
                                     rng.uniformInt(2ULL));
                if (units >= m)
                    ++hits;
            }
            results[g].positive[i] = hits >= cfg_.detect_min;
        }
        ++tests_run_;

        obs_instances += groups[g].size();
        if (h_error_rate_ != nullptr && !groups[g].empty()) {
            // Error rate against the simulator's own ground truth: an
            // instance should read positive iff its host carries >= m
            // pressure units.
            std::size_t wrong = 0;
            for (std::size_t i = 0; i < groups[g].size(); ++i) {
                const bool truth =
                    pressure[platform_->oracleHostOf(groups[g][i])] >= m;
                wrong += results[g].positive[i] != truth;
            }
            h_error_rate_->observe(
                static_cast<double>(wrong) /
                static_cast<double>(groups[g].size()));
        }
    }
    EAAO_OBS_COUNT(c_group_tests_, groups.size());

    platform_->advance(testDuration());
    EAAO_OBS_SPAN(platform_->obs(), "channel.ctest", "channel", obs_start,
                  platform_->now(),
                  {obs::TraceArg::u64("groups", groups.size()),
                   obs::TraceArg::u64("instances", obs_instances),
                   obs::TraceArg::u64("m", m)});
    return results;
}

GroupTestResult
RngChannel::run(const std::vector<faas::InstanceId> &group,
                std::uint32_t m)
{
    return runConcurrent({group}, m).front();
}

MemBusChannel::MemBusChannel(faas::Platform &platform,
                             const MemBusChannelConfig &cfg)
    : platform_(&platform), cfg_(cfg)
{
    if (obs::MetricsRegistry *metrics = platform.obs().metrics) {
        c_pair_tests_ = metrics->counter("channel.pair_tests");
        h_error_rate_ = metrics->histogram("channel.membus_error_rate",
                                           obs::errorRateBuckets());
    }
}

bool
MemBusChannel::testPair(faas::InstanceId a, faas::InstanceId b)
{
    sim::Rng &rng = platform_->measurementRng();
    const bool same =
        platform_->oracleHostOf(a) == platform_->oracleHostOf(b);
    const sim::SimTime obs_start = platform_->now();
    platform_->advance(cfg_.test_duration);
    ++tests_run_;
    const bool measured = same ? rng.bernoulli(cfg_.true_positive_prob)
                               : rng.bernoulli(cfg_.false_positive_prob);
    EAAO_OBS_COUNT(c_pair_tests_, 1);
    EAAO_OBS_OBSERVE(h_error_rate_, measured != same ? 1.0 : 0.0);
    EAAO_OBS_SPAN(platform_->obs(), "channel.membus_test", "channel",
                  obs_start, platform_->now(),
                  {obs::TraceArg::u64("a", a), obs::TraceArg::u64("b", b),
                   obs::TraceArg::u64("same_host", same ? 1 : 0)});
    return measured;
}

} // namespace eaao::channel
