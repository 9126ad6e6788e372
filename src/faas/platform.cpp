/**
 * @file
 * Implementation of the platform facade.
 */

#include "faas/platform.hpp"

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "support/logging.hpp"

namespace eaao::faas {

Platform::Platform(const PlatformConfig &cfg)
    : cfg_(cfg), eq_(cfg.epoch), root_rng_(cfg.seed),
      meas_rng_(root_rng_.fork(0x4d454153ULL)) // "MEAS"
{
    sim::Rng fleet_rng = root_rng_.fork(0x464c4545ULL); // "FLEE"
    fleet_ = std::make_unique<Fleet>(cfg.profile, cfg.tsc, cfg.timing,
                                     cfg.epoch, fleet_rng);
    orch_ = std::make_unique<Orchestrator>(
        *fleet_, eq_, cfg.orchestrator, cfg.profile, cfg.pricing,
        root_rng_.fork(0x4f524348ULL), cfg.obs); // "ORCH"

    EAAO_OBS_INSTANT(cfg_.obs, "platform.up", "platform", cfg.epoch,
                     {obs::TraceArg::u64("hosts", fleet_->size()),
                      obs::TraceArg::u64("shards", fleet_->shardCount())});
    if (cfg_.obs.metrics != nullptr) {
        obs::Histogram *uptime = cfg_.obs.metrics->histogram(
            "fleet.host_uptime_days", obs::uptimeDaysBuckets());
        for (hw::HostId hid = 0; hid < fleet_->size(); ++hid) {
            uptime->observe(
                (cfg.epoch - fleet_->host(hid).tsc().bootTime()).daysF());
        }
    }
}

AccountId
Platform::createAccount(std::optional<std::uint32_t> shard,
                        std::uint32_t quota_per_service)
{
    return orch_->createAccount(shard, quota_per_service);
}

void
Platform::setAccountQuota(AccountId account,
                          std::uint32_t quota_per_service)
{
    orch_->setAccountQuota(account, quota_per_service);
}

ServiceId
Platform::deployService(AccountId account, ExecEnv env,
                        ContainerSize size)
{
    return orch_->deployService(account, env, size);
}

void
Platform::redeployService(ServiceId service)
{
    orch_->redeployService(service);
}

std::vector<InstanceId>
Platform::connect(ServiceId service, std::uint32_t n)
{
    return orch_->scaleOut(service, n);
}

void
Platform::disconnectAll(ServiceId service)
{
    orch_->disconnectAll(service);
}

SandboxView
Platform::sandbox(InstanceId id)
{
    EAAO_ASSERT(instanceInfo(id).state != InstanceState::Terminated,
                "sandbox of a terminated instance");
    return SandboxView(*this, id);
}

void
Platform::advance(sim::Duration d)
{
    eq_.advance(d);
}

double
Platform::accountSpendUsd(AccountId id) const
{
    return orch_->accountSpendUsd(id);
}

hw::HostId
Platform::oracleHostOf(InstanceId id) const
{
    return orch_->instance(id).host;
}

const InstanceRecord &
Platform::instanceInfo(InstanceId id) const
{
    return orch_->instance(id);
}

std::optional<sim::SimTime>
Platform::terminatedAt(InstanceId id) const
{
    return orch_->instance(id).terminated_at;
}

InstanceId
Platform::restartInstance(InstanceId id)
{
    return orch_->restartInstance(id);
}

} // namespace eaao::faas
