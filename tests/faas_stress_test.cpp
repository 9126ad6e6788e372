/**
 * @file
 * Deterministic fuzz/stress test: random operation sequences against
 * the orchestrator with full invariant checking after every step.
 *
 * Operations: connect to a random level, disconnect, route request
 * bursts, restart instances, advance time by random amounts, deploy
 * extra services/accounts. Invariants: capacity budgets, list/record
 * agreement, billing consistency, no immortal idle instances.
 */

#include <gtest/gtest.h>

#include <map>

#include "faas/platform.hpp"
#include "faas/workload.hpp"
#include "sim/rng.hpp"

namespace eaao::faas {
namespace {

class StressFixture
{
  public:
    explicit StressFixture(std::uint64_t seed) : rng_(seed)
    {
        PlatformConfig cfg;
        cfg.profile = DataCenterProfile::usEast1();
        cfg.profile.host_count = 330;
        cfg.seed = seed;
        platform_ = std::make_unique<Platform>(cfg);
        accounts_.push_back(platform_->createAccount());
        services_.push_back(platform_->deployService(
            accounts_[0], ExecEnv::Gen1));
    }

    void
    step()
    {
        switch (rng_.uniformInt(std::uint64_t{8})) {
          case 0: { // scale a random service
            const auto svc = pickService();
            platform_->connect(
                svc, static_cast<std::uint32_t>(
                         rng_.uniformInt(std::int64_t{1},
                                         std::int64_t{300})));
            break;
          }
          case 1:
            platform_->disconnectAll(pickService());
            break;
          case 2: { // request burst
            const auto svc = pickService();
            const auto n = rng_.uniformInt(std::int64_t{1},
                                           std::int64_t{40});
            for (std::int64_t i = 0; i < n; ++i) {
                platform_->orchestrator().routeRequest(
                    svc, sim::Duration::millis(
                             rng_.uniformInt(std::int64_t{10},
                                             std::int64_t{5000})));
            }
            break;
          }
          case 3: { // restart a live instance, if any
            const auto &orch = platform_->orchestrator();
            for (int tries = 0; tries < 10; ++tries) {
                if (orch.instanceCount() == 0)
                    break;
                const auto id = rng_.uniformInt(orch.instanceCount());
                if (orch.instance(id).state !=
                    InstanceState::Terminated) {
                    platform_->restartInstance(id);
                    break;
                }
            }
            break;
          }
          case 4: // short advance
            platform_->advance(sim::Duration::seconds(
                rng_.uniformInt(std::int64_t{1}, std::int64_t{90})));
            break;
          case 5: // long advance (reaping kicks in)
            platform_->advance(sim::Duration::minutes(
                rng_.uniformInt(std::int64_t{2}, std::int64_t{40})));
            break;
          case 6: // new service
            if (services_.size() < 8) {
                services_.push_back(platform_->deployService(
                    pickAccount(),
                    rng_.bernoulli(0.3) ? ExecEnv::Gen2 : ExecEnv::Gen1,
                    rng_.bernoulli(0.3) ? sizes::kMedium
                                        : sizes::kSmall));
            }
            break;
          default: // new account
            if (accounts_.size() < 4)
                accounts_.push_back(platform_->createAccount());
            break;
        }
    }

    void
    checkInvariants() const
    {
        const auto &orch = platform_->orchestrator();

        // Recompute ground truth from the instance records.
        std::map<hw::HostId, double> vcpus_used;
        std::map<AccountId, std::uint32_t> live;
        std::map<ServiceId, std::uint32_t> active_count, idle_count;
        for (std::size_t i = 0; i < orch.instanceCount(); ++i) {
            const auto &inst = orch.instance(i);
            if (inst.state == InstanceState::Terminated) {
                ASSERT_TRUE(inst.terminated_at.has_value());
                ASSERT_EQ(inst.in_flight, 0u);
                continue;
            }
            vcpus_used[inst.host] += inst.size.vcpus;
            ++live[inst.account];
            if (inst.state == InstanceState::Active)
                ++active_count[inst.service];
            else
                ++idle_count[inst.service];
            // Idle instances never exceed the documented maximum age.
            if (inst.state == InstanceState::Idle) {
                ASSERT_LE((platform_->now() - inst.state_since).ns(),
                          orch.config().idle_max.ns());
                ASSERT_EQ(inst.in_flight, 0u);
            }
        }

        // Capacity budgets.
        for (const auto &[host, used] : vcpus_used) {
            ASSERT_LE(used, platform_->fleet().sku(host).vcpus *
                                    orch.config().host_usable_fraction +
                                1e-9);
        }

        // Account records agree.
        for (const auto acct : accounts_) {
            const auto it = live.find(acct);
            ASSERT_EQ(it == live.end() ? 0u : it->second,
                      orch.account(acct).live_count);
            ASSERT_GE(platform_->accountSpendUsd(acct), 0.0);
        }

        // Service lists agree with the records.
        for (const auto svc : services_) {
            const auto &record = orch.service(svc);
            const auto a = active_count.find(svc);
            const auto i = idle_count.find(svc);
            ASSERT_EQ(record.active.size(),
                      a == active_count.end() ? 0u : a->second);
            ASSERT_EQ(record.idle.size(),
                      i == idle_count.end() ? 0u : i->second);
        }
    }

    ServiceId
    pickService()
    {
        return services_[rng_.uniformInt(services_.size())];
    }

    AccountId
    pickAccount()
    {
        return accounts_[rng_.uniformInt(accounts_.size())];
    }

    std::unique_ptr<Platform> platform_;
    std::vector<AccountId> accounts_;
    std::vector<ServiceId> services_;
    sim::Rng rng_;
};

class OrchestratorStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OrchestratorStress, InvariantsSurviveRandomOps)
{
    StressFixture fixture(GetParam());
    for (int step = 0; step < 120; ++step) {
        fixture.step();
        fixture.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            FAIL() << "invariant broken at step " << step;
    }
    // Drain: everything disconnects and the fleet empties.
    for (const auto svc : fixture.services_)
        fixture.platform_->disconnectAll(svc);
    fixture.platform_->advance(sim::Duration::hours(3));
    const auto &orch = fixture.platform_->orchestrator();
    for (std::size_t i = 0; i < orch.instanceCount(); ++i) {
        EXPECT_NE(orch.instance(i).state, InstanceState::Idle)
            << "instance " << i << " survived the reaper";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrchestratorStress,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u,
                                           66u));

} // namespace
} // namespace eaao::faas
