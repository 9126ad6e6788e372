/**
 * @file
 * Unit tests for fleet construction and the placement trace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "core/strategy.hpp"
#include "faas/fleet.hpp"
#include "faas/platform.hpp"
#include "faas/trace.hpp"

namespace eaao::faas {
namespace {

Fleet
makeFleet(const DataCenterProfile &profile, std::uint64_t seed = 1)
{
    sim::Rng rng(seed);
    return Fleet(profile, hw::TscConfig{}, hw::TimingNoiseConfig{},
                 sim::SimTime(), rng);
}

TEST(Fleet, ShardPartitionCoversAllHosts)
{
    // The presets, and a fleet whose last shard is partial.
    DataCenterProfile ragged = DataCenterProfile::usWest1();
    ragged.host_count = 2 * ragged.shard_size + 7;
    for (const DataCenterProfile &profile :
         {DataCenterProfile::usEast1(), DataCenterProfile::usCentral1(),
          DataCenterProfile::usWest1(), ragged}) {
        Fleet fleet = makeFleet(profile);
        EXPECT_EQ(fleet.size(), profile.host_count);
        EXPECT_EQ(fleet.shardCount(),
                  (profile.host_count + profile.shard_size - 1) /
                      profile.shard_size);

        std::size_t total = 0;
        for (std::uint32_t s = 0; s < fleet.shardCount(); ++s) {
            const auto &members = fleet.shardHosts(s);
            total += members.size();
            EXPECT_LE(members.size(), profile.shard_size);
            for (const hw::HostId h : members)
                EXPECT_EQ(fleet.shardOf(h), s);
        }
        EXPECT_EQ(total, fleet.size());
        for (hw::HostId h = 0; h < fleet.size(); ++h)
            ASSERT_EQ(fleet.shardOf(h), h / profile.shard_size)
                << profile.name << " host " << h;
    }
}

TEST(Fleet, PopularityRanksArePerShardPermutations)
{
    Fleet fleet = makeFleet(DataCenterProfile::usWest1());
    for (std::uint32_t s = 0; s < fleet.shardCount(); ++s) {
        const auto &members = fleet.shardHosts(s);
        std::set<std::uint32_t> ranks;
        for (const hw::HostId h : members)
            ranks.insert(fleet.popularityRank(h));
        EXPECT_EQ(ranks.size(), members.size());
        EXPECT_EQ(*ranks.begin(), 0u);
        EXPECT_EQ(*ranks.rbegin(),
                  static_cast<std::uint32_t>(members.size() - 1));
        // shardHosts is popularity-ordered.
        for (std::size_t k = 0; k < members.size(); ++k)
            EXPECT_EQ(fleet.popularityRank(members[k]), k);
    }
}

TEST(Fleet, BootTimesPrecedeEpochAndMixWaves)
{
    Fleet fleet = makeFleet(DataCenterProfile::usEast1(), 7);
    std::map<std::int64_t, int> minute_buckets;
    for (hw::HostId h = 0; h < fleet.size(); ++h) {
        const sim::SimTime boot = fleet.host(h).tsc().bootTime();
        EXPECT_LE(boot, sim::SimTime() - sim::Duration::hours(1));
        ++minute_buckets[boot.ns() / sim::Duration::minutes(30).ns()];
    }
    // Maintenance waves concentrate many boots into a few 30-minute
    // windows.
    int crowded = 0;
    for (const auto &[bucket, count] : minute_buckets)
        crowded += (count >= 10);
    EXPECT_GE(crowded, 4);
}

TEST(Fleet, LabelErrorsAreMostlySmallWithATail)
{
    Fleet fleet = makeFleet(DataCenterProfile::usCentral1(), 9);
    int small = 0, large = 0;
    for (hw::HostId h = 0; h < fleet.size(); ++h) {
        const auto &tsc = fleet.host(h).tsc();
        const double eps = std::fabs(tsc.trueHz() - tsc.nominalHz());
        small += (eps < 5e3);
        large += (eps > 20e3);
    }
    const double n = fleet.size();
    EXPECT_GT(small / n, 0.75); // the core population
    EXPECT_GT(large / n, 0.01); // the heavy tail exists
    EXPECT_LT(large / n, 0.15);
}

TEST(PlacementTrace, RecordsReasonsAcrossTheLifecycle)
{
    PlatformConfig cfg;
    cfg.profile = DataCenterProfile::usEast1();
    cfg.seed = 12;
    Platform p(cfg);
    PlacementTrace trace;
    p.orchestrator().attachTrace(&trace);

    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);

    // Cold launch: everything is cold-base.
    p.connect(svc, 400);
    EXPECT_EQ(trace.countByReason(PlacementReason::ColdBase), 400u);
    EXPECT_EQ(trace.countByReason(PlacementReason::HotHelper), 0u);

    // Relaunch within the demand window: reuse + hot-helper creations.
    p.disconnectAll(svc);
    p.advance(sim::Duration::minutes(10));
    trace.clear();
    p.connect(svc, 400);
    EXPECT_GT(trace.countByReason(PlacementReason::HotHelper), 200u);
    EXPECT_GT(trace.countByReason(PlacementReason::Reuse), 0u);
    EXPECT_EQ(trace.countByReason(PlacementReason::ColdBase), 0u);

    // Events carry coherent metadata.
    for (const auto &event : trace.events()) {
        EXPECT_EQ(event.service, svc);
        EXPECT_EQ(event.account, acct);
        EXPECT_LT(event.host, p.fleet().size());
    }
}

TEST(PlacementTrace, CentralSpillsShowUp)
{
    PlatformConfig cfg;
    cfg.profile = DataCenterProfile::usCentral1();
    cfg.profile.host_count = 550;
    cfg.seed = 13;
    Platform p(cfg);
    PlacementTrace trace;
    p.orchestrator().attachTrace(&trace);

    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, ExecEnv::Gen1);
    p.connect(svc, 400);
    const auto spills =
        trace.countByReason(PlacementReason::ColdSpill);
    // ~15% of cold placements leak in us-central1.
    EXPECT_GT(spills, 30u);
    EXPECT_LT(spills, 110u);
}

TEST(PlacementTrace, ReasonNamesRender)
{
    EXPECT_STREQ(toString(PlacementReason::ColdBase), "cold-base");
    EXPECT_STREQ(toString(PlacementReason::HotHelper), "hot-helper");
    EXPECT_STREQ(toString(PlacementReason::ColdSpill), "cold-spill");
    EXPECT_STREQ(toString(PlacementReason::ColdOverflow),
                 "cold-overflow");
    EXPECT_STREQ(toString(PlacementReason::Reuse), "reuse");
}

TEST(ApparentHostCounter, AdjacentBucketsMergeDistantOnesDoNot)
{
    core::ApparentHostCounter counter(1.0);
    core::Gen1Reading r;
    r.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    r.tboot_s = 100.0;
    EXPECT_TRUE(counter.add(r));
    r.tboot_s = 101.6; // adjacent bucket: same drifting host
    EXPECT_FALSE(counter.add(r));
    r.tboot_s = 120.0; // far away: a different host
    EXPECT_TRUE(counter.add(r));
    r.cpu_model = "Intel Xeon CPU @ 2.20GHz";
    r.tboot_s = 100.0; // same bucket, different model
    EXPECT_TRUE(counter.add(r));
    EXPECT_EQ(counter.count(), 3u);
}

TEST(ApparentHostCounter, ChainsAcrossSlowDrift)
{
    core::ApparentHostCounter counter(1.0);
    core::Gen1Reading r;
    r.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    std::size_t new_hosts = 0;
    for (int step = 0; step < 10; ++step) {
        r.tboot_s = 100.0 + step * 1.5; // 1.5 buckets per observation
        new_hosts += counter.add(r);
    }
    EXPECT_EQ(new_hosts, 1u); // one host, tracked through its drift
}

} // namespace
} // namespace eaao::faas
