/**
 * @file
 * Property-based suites (parameterized gtest): invariants that must
 * hold across rounding precisions, contention thresholds, data-center
 * profiles, container sizes, execution environments, and seeds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <set>

#include "channel/covert.hpp"
#include "core/fingerprint.hpp"
#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "faas/platform.hpp"
#include "stats/clustering.hpp"

namespace eaao::faas {

// gtest prints a parameter type it has no printer for as raw bytes; a
// ContainerSize's bytes start with its label's address, which moves
// from run to run. Print the label, so the discovered CTest names of
// the ContainerSizes suite stay the same in every build.
void
PrintTo(const ContainerSize &size, std::ostream *os)
{
    *os << size.name;
}

} // namespace eaao::faas

namespace eaao {
namespace {

faas::PlatformConfig
smallEast(std::uint64_t seed)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = 330;
    cfg.seed = seed;
    return cfg;
}

// ---------------------------------------------------------------------
// Fingerprint quantization invariants across p_boot.
// ---------------------------------------------------------------------

class FingerprintQuantization : public ::testing::TestWithParam<double>
{
};

TEST_P(FingerprintQuantization, BucketMatchesDefinition)
{
    const double p_boot = GetParam();
    core::Gen1Reading r;
    r.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    for (const double tboot :
         {-1234.5678, 0.0, 0.49, 0.51, 987654.321, 5e6}) {
        r.tboot_s = tboot;
        const auto fp = core::quantizeGen1(r, p_boot);
        EXPECT_EQ(fp.boot_bucket,
                  static_cast<std::int64_t>(
                      std::llround(tboot / p_boot)));
        EXPECT_EQ(fp.cpu_model, r.cpu_model);
    }
}

TEST_P(FingerprintQuantization, KeyIsInjectiveOnBuckets)
{
    const double p_boot = GetParam();
    core::Gen1Reading r;
    r.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    std::map<std::int64_t, std::uint64_t> keys;
    for (int k = -50; k <= 50; ++k) {
        r.tboot_s = static_cast<double>(k) * p_boot;
        const auto key =
            core::fingerprintKey(core::quantizeGen1(r, p_boot));
        const auto [it, inserted] = keys.emplace(
            core::quantizeGen1(r, p_boot).boot_bucket, key);
        if (!inserted) {
            EXPECT_EQ(it->second, key);
        }
    }
    // 101 buckets -> 101 distinct keys (no collisions in this range).
    std::set<std::uint64_t> distinct;
    for (const auto &[bucket, key] : keys)
        distinct.insert(key);
    EXPECT_EQ(distinct.size(), keys.size());
}

TEST_P(FingerprintQuantization, PairCountsPartitionAllPairs)
{
    const double p_boot = GetParam();
    faas::Platform p(smallEast(100));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    core::LaunchOptions launch;
    launch.instances = 150;
    launch.p_boot_s = p_boot;
    const auto obs = core::launchAndObserve(p, svc, launch);

    std::vector<std::uint64_t> oracle;
    for (const auto id : obs.ids)
        oracle.push_back(p.oracleHostOf(id));
    const auto pc = stats::comparePairs(obs.fp_keys, oracle);
    EXPECT_EQ(pc.tp + pc.fp + pc.fn + pc.tn, 150u * 149u / 2u);
    EXPECT_GE(pc.fmi(), 0.0);
    EXPECT_LE(pc.fmi(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(PBootSweep, FingerprintQuantization,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 3.0,
                                           10.0, 100.0));

// ---------------------------------------------------------------------
// CTest threshold semantics across m.
// ---------------------------------------------------------------------

class CTestThreshold : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CTestThreshold, PositiveIffEnoughCoLocation)
{
    const std::uint32_t m = GetParam();
    faas::Platform p(smallEast(101));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = p.connect(svc, 400);

    // Cohort: all instances of one host.
    const hw::HostId host = p.oracleHostOf(ids[0]);
    std::vector<faas::InstanceId> cohort;
    for (const auto id : ids)
        if (p.oracleHostOf(id) == host)
            cohort.push_back(id);
    ASSERT_GE(cohort.size(), 9u);

    channel::RngChannel chan(p);

    // k >= m members of one host: all positive.
    if (cohort.size() >= m) {
        std::vector<faas::InstanceId> group(cohort.begin(),
                                            cohort.begin() + m);
        const auto result = chan.run(group, m);
        for (std::size_t i = 0; i < group.size(); ++i)
            EXPECT_TRUE(result.positive[i]) << "m=" << m;
    }

    // k = m - 1 members: nobody reaches the threshold.
    if (m >= 2 && cohort.size() >= m - 1 && m > 2) {
        std::vector<faas::InstanceId> group(cohort.begin(),
                                            cohort.begin() + (m - 1));
        const auto result = chan.run(group, m);
        for (std::size_t i = 0; i < group.size(); ++i)
            EXPECT_FALSE(result.positive[i]) << "m=" << m;
    }
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, CTestThreshold,
                         ::testing::Values(2u, 3u, 4u, 6u, 9u));

// ---------------------------------------------------------------------
// Scalable verification is exact across environments and seeds.
// ---------------------------------------------------------------------

using VerifyParam = std::tuple<faas::ExecEnv, std::uint64_t>;

class VerificationExactness
    : public ::testing::TestWithParam<VerifyParam>
{
};

TEST_P(VerificationExactness, MatchesOracleClustering)
{
    const auto [env, seed] = GetParam();
    faas::Platform p(smallEast(seed));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, env);
    core::LaunchOptions launch;
    launch.instances = 250;
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(p, svc, launch);

    channel::RngChannel chan(p);
    core::VerifyOptions opts;
    opts.no_false_negatives = (env == faas::ExecEnv::Gen2);
    const auto result = core::verifyScalable(
        p, chan, obs.ids, obs.fp_keys, obs.class_keys, opts);

    std::vector<std::uint64_t> oracle;
    for (const auto id : obs.ids)
        oracle.push_back(p.oracleHostOf(id));
    const auto pc = stats::comparePairs(result.cluster_of, oracle);
    EXPECT_EQ(pc.fp, 0u) << "env=" << faas::toString(env);
    EXPECT_EQ(pc.fn, 0u) << "env=" << faas::toString(env);
}

INSTANTIATE_TEST_SUITE_P(
    EnvAndSeedSweep, VerificationExactness,
    ::testing::Combine(::testing::Values(faas::ExecEnv::Gen1,
                                         faas::ExecEnv::Gen2),
                       ::testing::Values(201u, 202u, 203u, 204u)));

// ---------------------------------------------------------------------
// Orchestrator invariants across data-center profiles.
// ---------------------------------------------------------------------

class OrchestratorInvariants
    : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    faas::DataCenterProfile
    profile() const
    {
        switch (GetParam()) {
          case 0:
            return faas::DataCenterProfile::usEast1();
          case 1: {
            auto p = faas::DataCenterProfile::usCentral1();
            p.host_count = 550; // keep the test fast
            return p;
          }
          default:
            return faas::DataCenterProfile::usWest1();
        }
    }
};

TEST_P(OrchestratorInvariants, CapacityAndAccountingHold)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile();
    cfg.seed = 300 + GetParam();
    faas::Platform p(cfg);

    const auto a1 = p.createAccount();
    const auto a2 = p.createAccount();
    const auto s1 = p.deployService(a1, faas::ExecEnv::Gen1);
    const auto s2 = p.deployService(a2, faas::ExecEnv::Gen2,
                                    faas::sizes::kMedium);

    // A mixed op sequence: launches, partial reaping, relaunches.
    p.connect(s1, 400);
    p.connect(s2, 150);
    p.advance(sim::Duration::seconds(45));
    p.disconnectAll(s1);
    p.advance(sim::Duration::minutes(6));
    p.connect(s1, 500);
    p.advance(sim::Duration::minutes(2));
    p.disconnectAll(s2);
    p.advance(sim::Duration::minutes(20));
    p.connect(s2, 80);

    // Invariant 1: per-host vcpu usage within the usable budget.
    std::map<hw::HostId, double> used;
    const auto &orch = p.orchestrator();
    std::map<faas::AccountId, std::uint32_t> live;
    for (std::size_t i = 0; i < orch.instanceCount(); ++i) {
        const auto &inst = orch.instance(i);
        if (inst.state == faas::InstanceState::Terminated)
            continue;
        used[inst.host] += inst.size.vcpus;
        ++live[inst.account];
    }
    for (const auto &[host, vcpus] : used) {
        EXPECT_LE(vcpus, p.fleet().sku(host).vcpus * 0.85 + 1e-9);
    }

    // Invariant 2: account live counts agree with the records.
    EXPECT_EQ(live[a1], orch.account(a1).live_count);
    EXPECT_EQ(live[a2], orch.account(a2).live_count);

    // Invariant 3: no idle instance ever outlives idle_max.
    for (std::size_t i = 0; i < orch.instanceCount(); ++i) {
        const auto &inst = orch.instance(i);
        if (inst.state == faas::InstanceState::Idle) {
            EXPECT_LE((p.now() - inst.state_since).ns(),
                      orch.config().idle_max.ns());
        }
    }

    // Invariant 4: spend is non-negative and grows with activity.
    EXPECT_GT(p.accountSpendUsd(a1), 0.0);
    EXPECT_GT(p.accountSpendUsd(a2), 0.0);
}

TEST_P(OrchestratorInvariants, BillingMatchesActiveSeconds)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile();
    cfg.seed = 310 + GetParam();
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    p.connect(svc, 50);
    p.advance(sim::Duration::seconds(200));
    p.disconnectAll(svc);
    p.advance(sim::Duration::minutes(20)); // all reaped, bill settled

    const auto &orch = p.orchestrator();
    double expected = 0.0;
    const double rate =
        orch.pricing().usdPerActiveSecond(faas::sizes::kSmall);
    for (std::size_t i = 0; i < orch.instanceCount(); ++i)
        expected += orch.instance(i).active_seconds * rate;
    EXPECT_NEAR(p.accountSpendUsd(acct), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Profiles, OrchestratorInvariants,
                         ::testing::Values(0u, 1u, 2u));

// ---------------------------------------------------------------------
// Container sizes: placement and pricing scale sensibly.
// ---------------------------------------------------------------------

class ContainerSizes
    : public ::testing::TestWithParam<faas::ContainerSize>
{
};

TEST_P(ContainerSizes, PlacementAndBillingWork)
{
    const faas::ContainerSize size = GetParam();
    faas::Platform p(smallEast(400));
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1, size);
    const auto ids = p.connect(svc, 60);
    EXPECT_EQ(ids.size(), 60u);
    p.advance(sim::Duration::seconds(100));
    p.disconnectAll(svc);

    const double rate =
        faas::PricingModel{}.usdPerActiveSecond(size);
    EXPECT_NEAR(p.accountSpendUsd(acct), 60 * (100.0 + 1.5) * rate,
                1e-9);
}

TEST_P(ContainerSizes, SharesBaseHostsAcrossSizes)
{
    // Observation: different resource specs share the same base hosts.
    const faas::ContainerSize size = GetParam();
    faas::Platform p(smallEast(401));
    const auto acct = p.createAccount();
    const auto small =
        p.deployService(acct, faas::ExecEnv::Gen1, faas::sizes::kSmall);
    const auto sized = p.deployService(acct, faas::ExecEnv::Gen1, size);

    std::set<hw::HostId> small_hosts, sized_hosts;
    for (const auto id : p.connect(small, 200))
        small_hosts.insert(p.oracleHostOf(id));
    p.disconnectAll(small);
    p.advance(sim::Duration::minutes(45));
    for (const auto id : p.connect(sized, 200))
        sized_hosts.insert(p.oracleHostOf(id));

    std::size_t overlap = 0;
    for (const auto h : sized_hosts)
        overlap += small_hosts.count(h);
    EXPECT_GT(overlap, sized_hosts.size() / 2);
}

// gtest numbers the sizes; CTest discovery then names each test after
// the printed size, e.g. TableOneSizes/ContainerSizes.<Test>/Pico.
INSTANTIATE_TEST_SUITE_P(
    TableOneSizes, ContainerSizes,
    ::testing::Values(faas::sizes::kPico, faas::sizes::kSmall,
                      faas::sizes::kMedium, faas::sizes::kLarge));

} // namespace
} // namespace eaao
