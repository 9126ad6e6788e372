/**
 * @file
 * The orchestrator's helper and spill placement state against
 * brute-force definitions:
 *
 *  - each PlacementMinIndex service view (and the two-view helper
 *    pick) against the linear scan it replaces, over random orders,
 *    loads, capacity rejections, prefix doubling and the duplicated
 *    hosts isolate_accounts puts on both the base and the helper list;
 *  - the helper and spill prefixes the orchestrator keeps against the
 *    front of testkit's full builds of the same orders, before and
 *    after a pick extends them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "faas/placement_index.hpp"
#include "faas/platform.hpp"
#include "sim/rng.hpp"
#include "testkit/reference.hpp"

namespace eaao {
namespace {

/** @p n distinct hosts drawn from [0, universe), in random order. */
std::vector<hw::HostId>
randomOrder(sim::Rng &rng, std::uint32_t universe, std::size_t n)
{
    std::vector<hw::HostId> all(universe);
    for (std::uint32_t h = 0; h < universe; ++h)
        all[h] = h;
    for (std::size_t i = all.size(); i > 1; --i)
        std::swap(all[i - 1], all[rng.uniformInt(std::uint64_t{i})]);
    all.resize(n);
    return all;
}

/** The scan the views replace: first strict minimum over both lists. */
std::optional<hw::HostId>
scan(const std::vector<hw::HostId> &first, std::size_t first_prefix,
     const std::vector<hw::HostId> &second, std::size_t second_prefix,
     const std::vector<std::uint32_t> &load, const std::vector<bool> &room)
{
    std::optional<hw::HostId> best;
    const auto consider = [&](hw::HostId h) {
        if (room[h] && (!best || load[h] < load[*best]))
            best = h;
    };
    for (std::size_t i = 0; i < first_prefix; ++i)
        consider(first[i]);
    for (std::size_t i = 0; i < second_prefix; ++i)
        consider(second[i]);
    return best;
}

TEST(PlacementViewProperty, ServiceViewsMatchLinearScans)
{
    constexpr std::uint32_t kHosts = 96;
    sim::Rng rng(0x71e75);
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        // isolate_accounts draws helpers from the base hosts' own
        // shard, so the two lists share hosts.
        const bool isolate = rng.bernoulli(0.3);
        const std::vector<hw::HostId> base =
            randomOrder(rng, isolate ? 32 : kHosts,
                        1 + rng.uniformInt(std::uint64_t{32}));
        const std::vector<hw::HostId> helper =
            randomOrder(rng, isolate ? 32 : kHosts,
                        1 + rng.uniformInt(std::uint64_t{32}));

        // Small loads make ties common, including base/helper ties.
        std::vector<std::uint32_t> load(kHosts);
        for (auto &l : load)
            l = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{3}));
        faas::PlacementMinIndex base_view;
        faas::PlacementMinIndex helper_view;
        const auto load_of = [&](hw::HostId h) { return load[h]; };
        base_view.rebuild(base, load_of);
        helper_view.rebuild(helper, load_of);

        for (int step = 0; step < 40; ++step) {
            // Incremental load changes reach both views.
            const auto h =
                static_cast<hw::HostId>(rng.uniformInt(std::uint64_t{kHosts}));
            load[h] = rng.bernoulli(0.5) || load[h] == 0 ? load[h] + 1
                                                         : load[h] - 1;
            base_view.noteLoad(h, load[h]);
            helper_view.noteLoad(h, load[h]);

            // Capacity rejections, sometimes of nearly every host.
            const double reject = rng.bernoulli(0.2) ? 0.95 : 0.3;
            std::vector<bool> room(kHosts);
            for (std::size_t i = 0; i < room.size(); ++i)
                room[i] = !rng.bernoulli(reject);
            const auto accept = [&](hw::HostId host) { return room[host]; };

            const std::size_t base_prefix =
                1 + rng.uniformInt(std::uint64_t{base.size()});
            std::size_t helper_prefix =
                1 + rng.uniformInt(std::uint64_t{helper.size()});
            // The helper pick doubles its prefix until a host fits.
            while (true) {
                const auto want = scan(base, base_prefix, helper,
                                       helper_prefix, load, room);
                const auto got = faas::pickMinAcross(
                    base_view, base, base_prefix, helper_view, helper,
                    helper_prefix, accept);
                ASSERT_EQ(got, want) << "prefixes " << base_prefix << "+"
                                     << helper_prefix;
                if (want || helper_prefix == helper.size())
                    break;
                helper_prefix = std::min(helper_prefix * 2, helper.size());
            }

            // A single view (base or spill pick) is the one-list scan.
            for (std::size_t prefix = 1;; prefix *= 2) {
                prefix = std::min(prefix, helper.size());
                const auto want = scan(helper, prefix, {}, 0, load, room);
                const auto got = helper_view.pickMin(helper, prefix, accept);
                ASSERT_EQ(got ? std::optional<hw::HostId>(got->host)
                              : std::nullopt,
                          want)
                    << "prefix " << prefix;
                if (got) {
                    ASSERT_EQ(got->load, load[got->host]);
                }
                if (prefix == helper.size())
                    break;
            }
        }
    }
}

/** A platform whose hosts hold three to six Medium instances. */
faas::PlatformConfig
crampedConfig(faas::DataCenterProfile profile, std::uint64_t seed,
              bool isolate)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = seed;
    cfg.orchestrator.isolate_accounts = isolate;
    cfg.orchestrator.host_usable_fraction = 0.1;
    return cfg;
}

/** svc's kept prefixes equal the front of testkit's full builds. */
void
expectPrefixesOfFullOrders(const faas::Platform &platform,
                           faas::ServiceId service)
{
    const faas::ServiceRecord &svc = platform.orchestrator().service(service);
    const std::vector<hw::HostId> helpers =
        testkit::referenceHelperOrder(platform, service);
    ASSERT_LE(svc.helper_order.size(), helpers.size());
    EXPECT_TRUE(std::equal(svc.helper_order.begin(), svc.helper_order.end(),
                           helpers.begin()));
    const std::vector<hw::HostId> spill =
        testkit::referenceSpillOrder(platform, service);
    ASSERT_LE(svc.spill_order.size(), spill.size());
    EXPECT_TRUE(std::equal(svc.spill_order.begin(), svc.spill_order.end(),
                           spill.begin()));
}

TEST(PlacementViewPrefix, HelperPrefixIsTheFrontOfTheFullOrder)
{
    for (const std::uint64_t seed : {3ULL, 77ULL, 20261016ULL}) {
        for (const bool isolate : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " isolate " << isolate);
            faas::Platform platform(crampedConfig(
                faas::DataCenterProfile::usWest1(), seed, isolate));
            sim::Rng rng(seed);
            const auto shard = static_cast<std::uint32_t>(
                rng.uniformInt(std::uint64_t{platform.fleet().shardCount()}));
            const auto acct = platform.createAccount(shard);
            const auto svc = platform.deployService(
                acct, faas::ExecEnv::Gen1, faas::sizes::kMedium);
            const auto &helpers =
                platform.orchestrator().service(svc).helper_order;
            const std::size_t kept = helpers.size();
            expectPrefixesOfFullOrders(platform, svc);

            // A cold burst makes the service hot; the hot relaunch
            // fills the helper prefix and doubles past it.
            platform.connect(svc, 100);
            platform.disconnectAll(svc);
            platform.connect(svc, 300);
            EXPECT_GT(helpers.size(), kept);
            expectPrefixesOfFullOrders(platform, svc);
        }
    }
}

TEST(PlacementViewPrefix, SpillPrefixIsTheFrontOfTheFullOrder)
{
    for (const std::uint64_t seed : {5ULL, 4242ULL}) {
        for (const bool isolate : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " isolate " << isolate);
            faas::PlatformConfig cfg = crampedConfig(
                faas::DataCenterProfile::usCentral1(), seed, isolate);
            cfg.orchestrator.hot_burst_min = 1'000'000; // stay cold
            faas::Platform platform(cfg);
            sim::Rng rng(seed);
            const auto shard = static_cast<std::uint32_t>(
                rng.uniformInt(std::uint64_t{platform.fleet().shardCount()}));
            const auto acct = platform.createAccount(shard);
            const auto svc = platform.deployService(
                acct, faas::ExecEnv::Gen1, faas::sizes::kMedium);
            const auto &spill =
                platform.orchestrator().service(svc).spill_order;
            EXPECT_TRUE(spill.empty()); // built on first use

            // Each routed request creates one instance; about one in
            // seven spills, and the spill prefix grows as the service
            // does and as its hosts fill.
            std::set<std::size_t> sizes;
            for (int r = 0; r < 250; ++r) {
                platform.orchestrator().routeRequest(
                    svc, sim::Duration::minutes(30));
                if (!spill.empty() && sizes.insert(spill.size()).second)
                    expectPrefixesOfFullOrders(platform, svc);
            }
            EXPECT_GE(sizes.size(), 2u);
        }
    }
}

} // namespace
} // namespace eaao
