/**
 * @file
 * Extension kernel: attacker-induced victim scale-out. After priming
 * its own services onto helper hosts, the attacker floods the victim's
 * public endpoint, forcing the orchestrator to create many more victim
 * instances — each landing on hosts the attacker already holds. The
 * steady-load and flood shapes come from the campaign's [workload] and
 * [attack] sections.
 *
 * Stays serial: the priming and the flood share one platform.
 */

#include <cstdio>
#include <set>
#include <utility>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "faas/platform.hpp"
#include "faas/workload.hpp"

EAAO_CAMPAIGN_PROGRAM(ext_victim_inflation)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    faas::Platform p(cfg);
    const auto attacker = p.createAccount(0);
    const auto victim = p.createAccount(1);

    // Attacker primes and holds (Strategy 2).
    const core::CampaignResult attack =
        core::runOptimizedCampaign(p, attacker, core::CampaignConfig{});

    // The victim runs a modest steady workload.
    const auto vsvc = p.deployService(victim, faas::ExecEnv::Gen1);
    sim::Rng rng(spec.u64("workload", "rng_seed"));
    faas::LoadSpec steady;
    steady.rps = spec.num("workload", "steady_rps");
    steady.mean_service_time = sim::Duration::millis(
        static_cast<std::int64_t>(
            spec.num("workload", "steady_service_ms")));
    steady.span = sim::Duration::minutes(
        static_cast<std::int64_t>(
            spec.num("workload", "steady_span_minutes")));
    const auto baseline = faas::driveLoad(p, vsvc, steady, rng);

    auto victim_live = [&p, vsvc] {
        const auto &svc = p.orchestrator().service(vsvc);
        return svc.active.size() + svc.idle.size();
    };
    auto coverage_now = [&] {
        std::set<hw::HostId> hosts;
        std::uint32_t covered = 0, total = 0;
        const auto &orch = p.orchestrator();
        for (std::size_t i = 0; i < orch.instanceCount(); ++i) {
            const auto &inst = orch.instance(i);
            if (inst.service != vsvc ||
                inst.state == faas::InstanceState::Terminated) {
                continue;
            }
            ++total;
            covered += attack.occupied_hosts.count(inst.host) > 0;
        }
        return std::pair<std::uint32_t, std::uint32_t>(covered, total);
    };

    const auto before = coverage_now();
    std::printf("steady state: %llu requests served, %zu live victim "
                "instances,\n  %u of %u co-located with the attacker\n\n",
                static_cast<unsigned long long>(baseline.requests),
                victim_live(), before.first, before.second);

    // The attacker floods the victim's public endpoint.
    const auto flood = faas::floodRequests(
        p, vsvc, spec.u32("attack", "flood_requests"),
        sim::Duration::seconds(static_cast<std::int64_t>(
            spec.num("attack", "flood_hold_s"))),
        sim::Duration::millis(static_cast<std::int64_t>(
            spec.num("attack", "flood_gap_ms"))),
        rng);

    const auto after = coverage_now();
    core::TextTable table;
    table.header({"", "before flood", "after flood"});
    table.row({"live victim instances",
               core::format("%u", before.second),
               core::format("%u", after.second)});
    table.row({"co-located with attacker",
               core::format("%u", before.first),
               core::format("%u", after.first)});
    table.row({"coverage",
               core::percent(before.second
                                 ? static_cast<double>(before.first) /
                                       before.second
                                 : 0.0),
               core::percent(after.second
                                 ? static_cast<double>(after.first) /
                                       after.second
                                 : 0.0)});
    table.print();

    const double flood_cost =
        static_cast<double>(flood.requests) *
        spec.num("attack", "flood_hold_s") *
        faas::PricingModel{}.usdPerActiveSecond(faas::sizes::kSmall);
    std::printf("\nthe flood billed the *victim* ~%.2f USD of instance "
                "time and multiplied the\nattackable victim instances "
                "%.1fx — autoscaling turns the public interface "
                "into\nan attack-surface amplifier.\n",
                flood_cost,
                before.second
                    ? static_cast<double>(after.second) / before.second
                    : 0.0);
}
