/**
 * @file
 * Unit tests for the platform facade and sandbox views.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "faas/platform.hpp"
#include "hw/cpu_sku.hpp"

namespace eaao::faas {
namespace {

PlatformConfig
smallConfig(std::uint64_t seed = 1)
{
    PlatformConfig cfg;
    cfg.profile = DataCenterProfile::usEast1();
    cfg.profile.host_count = 330;
    cfg.profile.shard_size = 110;
    cfg.seed = seed;
    return cfg;
}

TEST(Platform, ConnectYieldsRequestedConcurrency)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    const auto ids = p.connect(svc, 50);
    EXPECT_EQ(ids.size(), 50u);
    for (const InstanceId id : ids) {
        EXPECT_EQ(p.instanceInfo(id).state, InstanceState::Active);
        EXPECT_EQ(p.instanceInfo(id).account, acct);
    }
}

TEST(Platform, DisconnectMakesInstancesIdleThenReaped)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    const auto ids = p.connect(svc, 20);
    p.disconnectAll(svc);
    for (const InstanceId id : ids)
        EXPECT_EQ(p.instanceInfo(id).state, InstanceState::Idle);

    // Nothing is reaped during the two-minute hold...
    p.advance(sim::Duration::seconds(115));
    for (const InstanceId id : ids)
        EXPECT_EQ(p.instanceInfo(id).state, InstanceState::Idle);

    // ...and everything is gone by the documented 15-minute maximum.
    p.advance(sim::Duration::minutes(15));
    for (const InstanceId id : ids) {
        EXPECT_EQ(p.instanceInfo(id).state, InstanceState::Terminated);
        ASSERT_TRUE(p.terminatedAt(id).has_value());
    }
}

TEST(Platform, ReconnectReusesIdleInstances)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    const auto first = p.connect(svc, 30);
    p.disconnectAll(svc);
    p.advance(sim::Duration::seconds(30));
    const auto second = p.connect(svc, 30);
    const std::set<InstanceId> a(first.begin(), first.end());
    int reused = 0;
    for (const InstanceId id : second)
        reused += a.count(id);
    // Within the hold window every instance survives and is reused.
    EXPECT_EQ(reused, 30);
}

TEST(Platform, BillingChargesActiveSecondsOnly)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    p.connect(svc, 10);
    p.advance(sim::Duration::seconds(100));
    p.disconnectAll(svc);
    const double spend_at_disconnect = p.accountSpendUsd(acct);
    // 10 Small instances, 100 s active + 1.5 s billable startup.
    const double rate = PricingModel{}.usdPerActiveSecond(sizes::kSmall);
    EXPECT_NEAR(spend_at_disconnect, 10 * 101.5 * rate, 1e-9);

    // Idle time is free.
    p.advance(sim::Duration::minutes(30));
    EXPECT_NEAR(p.accountSpendUsd(acct), spend_at_disconnect, 1e-12);
}

TEST(Platform, Gen1SandboxRevealsHostModelAndTsc)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    const auto ids = p.connect(svc, 5);
    for (const InstanceId id : ids) {
        SandboxView sbx = p.sandbox(id);
        EXPECT_EQ(sbx.env(), ExecEnv::Gen1);
        const std::string &model = sbx.cpuModelName();
        // The catalog's own string, not a copy of it.
        EXPECT_EQ(&model, &p.fleet().sku(p.oracleHostOf(id)).model_name);
        EXPECT_GT(hw::SkuCatalog::labeledFrequencyHz(model), 0.0);

        // The TSC reflects the host's uptime (hosts booted >= 1 h ago).
        const TimestampSample ts = sbx.readTimestamp();
        const double uptime_s =
            static_cast<double>(ts.tsc) /
            p.fleet().host(p.oracleHostOf(id)).tsc().trueHz();
        EXPECT_GT(uptime_s, 3000.0);
    }
}

TEST(Platform, Gen2SandboxHidesModelAndOffsetsTsc)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen2);
    const auto ids = p.connect(svc, 5);
    p.advance(sim::Duration::seconds(10));
    for (const InstanceId id : ids) {
        SandboxView sbx = p.sandbox(id);
        EXPECT_EQ(sbx.cpuModelName(), "Virtual CPU");
        // Offset TSC: roughly 10 s of guest uptime, not days of host
        // uptime.
        const TimestampSample ts = sbx.readTimestamp();
        const double apparent_uptime =
            static_cast<double>(ts.tsc) / 2.9e9;
        EXPECT_LT(apparent_uptime, 60.0);

        // The refined host frequency is 1 kHz-granular and host-bound.
        const double refined = sbx.refinedTscFrequencyHz();
        EXPECT_DOUBLE_EQ(std::fmod(refined, 1000.0), 0.0);
        EXPECT_DOUBLE_EQ(
            refined,
            p.fleet().host(p.oracleHostOf(id)).tsc().refinedHz());
    }
}

TEST(Platform, RestartInstanceReplacesAndTerminates)
{
    Platform p(smallConfig());
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    const auto ids = p.connect(svc, 10);
    const InstanceId replacement = p.restartInstance(ids[0]);
    EXPECT_NE(replacement, ids[0]);
    EXPECT_EQ(p.instanceInfo(ids[0]).state, InstanceState::Terminated);
    EXPECT_EQ(p.instanceInfo(replacement).state, InstanceState::Active);
}

TEST(Platform, MeasuredFrequencyTightOnCleanHosts)
{
    PlatformConfig cfg = smallConfig();
    cfg.timing.noisy_timer_fraction = 0.0;
    Platform p(cfg);
    const AccountId acct = p.createAccount();
    const ServiceId svc = p.deployService(acct, ExecEnv::Gen1);
    const auto ids = p.connect(svc, 3);
    SandboxView sbx = p.sandbox(ids[0]);
    const auto samples =
        sbx.measureTscFrequency(sim::Duration::millis(100), 10);
    ASSERT_EQ(samples.size(), 10u);
    const double true_hz =
        p.fleet().host(p.oracleHostOf(ids[0])).tsc().trueHz();
    for (const double s : samples)
        EXPECT_NEAR(s, true_hz, 200.0);
}

TEST(Platform, DeterministicAcrossIdenticalSeeds)
{
    Platform a(smallConfig(77)), b(smallConfig(77));
    const AccountId acct_a = a.createAccount();
    const AccountId acct_b = b.createAccount();
    const ServiceId svc_a = a.deployService(acct_a, ExecEnv::Gen1);
    const ServiceId svc_b = b.deployService(acct_b, ExecEnv::Gen1);
    const auto ids_a = a.connect(svc_a, 40);
    const auto ids_b = b.connect(svc_b, 40);
    ASSERT_EQ(ids_a.size(), ids_b.size());
    for (std::size_t i = 0; i < ids_a.size(); ++i)
        EXPECT_EQ(a.oracleHostOf(ids_a[i]), b.oracleHostOf(ids_b[i]));
}

} // namespace
} // namespace eaao::faas
