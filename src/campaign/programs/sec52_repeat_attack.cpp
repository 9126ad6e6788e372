/**
 * @file
 * Section 5.2 kernel, "Potential attack optimizations": focusing
 * repeated attacks on the victim's recorded base hosts. Attack 1
 * records fingerprints (and drift slopes) of hosts that carried victim
 * instances; attack 2, a day later, matches fresh fingerprints against
 * the recorded set and monitors only the matching instances.
 *
 * Stays serial: attack 2 reuses attack 1's platform a day later.
 */

#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/repeat_attack.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "core/tracker.hpp"
#include "faas/platform.hpp"

EAAO_CAMPAIGN_PROGRAM(sec52_repeat_attack)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    faas::Platform p(cfg);
    const auto attacker = p.createAccount(0);
    const auto victim = p.createAccount(1);

    const std::uint32_t victim_count =
        spec.u32("verify", "victim_instances");
    const double tol_s = spec.num("attack", "match_tolerance_s");
    const int quorum = spec.count("attack", "quorum");
    const int track_reps = spec.count("attack", "track_samples");
    const int track_gap_min =
        spec.count("attack", "track_gap_minutes", campaign::kMaxMinutes);

    // ---- Attack 1: co-locate and record victim hosts. ----
    const core::CampaignResult attack1 =
        core::runOptimizedCampaign(p, attacker, core::CampaignConfig{});
    const auto vsvc = p.deployService(victim, faas::ExecEnv::Gen1);
    const auto vids = p.connect(vsvc, victim_count);

    std::set<hw::HostId> victim_hosts;
    for (const auto id : vids)
        victim_hosts.insert(p.oracleHostOf(id));

    // Record one attacker-side reading per co-located victim host.
    core::RepeatAttackPlanner planner(tol_s, quorum);
    std::set<hw::HostId> recorded_hosts;
    for (std::size_t i = 0; i < attack1.final_instances.size(); ++i) {
        const auto inst = attack1.final_instances[i];
        const hw::HostId host = p.oracleHostOf(inst);
        if (victim_hosts.count(host) == 0 ||
            recorded_hosts.count(host) > 0) {
            continue;
        }
        faas::SandboxView sbx = p.sandbox(inst);
        // Track the host briefly to fit its drift slope.
        core::FingerprintHistory history;
        for (int t = 0; t < track_reps; ++t) {
            history.add(p.now(), core::readGen1Median(sbx, 15).tboot_s);
            p.advance(sim::Duration::minutes(track_gap_min));
        }
        const auto fit = history.fitDrift();
        core::Gen1Reading reading = core::readGen1Median(sbx, 15);
        planner.recordVictimHost(reading, fit.slope);
        recorded_hosts.insert(host);
    }
    std::printf("attack 1: victim on %zu hosts; recorded %zu "
                "fingerprints (co-located subset)\n\n",
                victim_hosts.size(), planner.size());

    // ---- One day later: attack 2 from a fresh high-demand state. ----
    p.disconnectAll(vsvc);
    for (const auto svc : attack1.services)
        p.disconnectAll(svc);
    p.advance(sim::Duration::days(1));

    const core::CampaignResult attack2 =
        core::runOptimizedCampaign(p, attacker, core::CampaignConfig{});
    const auto vsvc2 = p.deployService(victim, faas::ExecEnv::Gen1);
    const auto vids2 = p.connect(vsvc2, victim_count);
    std::set<hw::HostId> victim_hosts2;
    for (const auto id : vids2)
        victim_hosts2.insert(p.oracleHostOf(id));

    // Collect one representative attacker reading per occupied host.
    std::map<hw::HostId, core::Gen1Reading> reading_per_host;
    for (const auto inst : attack2.final_instances) {
        const hw::HostId host = p.oracleHostOf(inst);
        if (reading_per_host.count(host))
            continue;
        faas::SandboxView sbx = p.sandbox(inst);
        reading_per_host.emplace(host, core::readGen1Median(sbx, 15));
    }

    std::vector<core::Gen1Reading> readings;
    std::vector<hw::HostId> hosts;
    for (const auto &[host, reading] : reading_per_host) {
        hosts.push_back(host);
        readings.push_back(reading);
    }
    const auto focus = planner.focusIndices(readings);

    // Quality of the focus set.
    std::size_t focus_on_victim = 0;
    for (const std::size_t idx : focus)
        focus_on_victim += victim_hosts2.count(hosts[idx]);
    std::size_t reachable_victim_hosts = 0;
    for (const auto &[host, reading] : reading_per_host)
        reachable_victim_hosts += victim_hosts2.count(host);

    core::TextTable table;
    table.header({"metric", "unfocused", "focused"});
    table.row({"hosts to monitor",
               core::format("%zu", reading_per_host.size()),
               core::format("%zu", focus.size())});
    table.row({"victim hosts among them",
               core::format("%zu", reachable_victim_hosts),
               core::format("%zu", focus_on_victim)});
    table.row({"extraction effort",
               "1.0x",
               core::format("%.2fx",
                            static_cast<double>(focus.size()) /
                                static_cast<double>(
                                    reading_per_host.size()))});
    table.print();
}
