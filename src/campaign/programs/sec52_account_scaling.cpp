/**
 * @file
 * Section 5.2 kernel, "Potential attack optimizations": occupying more
 * hosts with more accounts and more services — and the quota wall that
 * makes it expensive. Established accounts scale to full launches;
 * fresh accounts are quota-capped until they build usage history.
 *
 * Each `point` builds its own Platform, so the points run as
 * independent trials on the parallel harness; the rows print in file
 * order, identical for any --threads value.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "support/logging.hpp"

namespace {

using namespace eaao;

/** One `point <accounts> <services_per_account> <quota>` line. */
struct Point
{
    std::uint32_t accounts = 0;
    std::uint32_t services = 0;
    std::uint32_t quota = 0;
};

/** Occupied-host fraction for a fleet of attacker accounts. */
double
occupancyWithAccounts(const faas::DataCenterProfile &profile,
                      std::uint32_t accounts,
                      std::uint32_t services_per_account,
                      std::uint32_t quota, std::uint32_t instances,
                      std::uint64_t seed, double &cost_usd)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = seed;
    faas::Platform p(cfg);

    std::set<hw::HostId> occupied;
    cost_usd = 0.0;
    for (std::uint32_t a = 0; a < accounts; ++a) {
        const auto acct = p.createAccount(
            a % p.fleet().shardCount(), quota);
        core::CampaignConfig campaign;
        campaign.services = services_per_account;
        campaign.prime.launch.instances = instances; // clamped by quota
        const auto result =
            core::runOptimizedCampaign(p, acct, campaign);
        occupied.insert(result.occupied_hosts.begin(),
                        result.occupied_hosts.end());
        cost_usd += result.cost_usd;
    }
    return static_cast<double>(occupied.size()) /
           static_cast<double>(p.fleet().size());
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(sec52_account_scaling)
{
    const campaign::CampaignSpec &spec = ctx.spec;

    const faas::DataCenterProfile profile =
        campaign::profileOf(spec, "platform", "profile");
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint32_t instances =
        spec.u32("workload", "instances_per_launch");

    std::vector<Point> points;
    for (const campaign::SpecLine *line :
         spec.directives("workload", "point")) {
        if (line->tokens.size() != 4)
            spec.fail(line->line_no,
                      "expected: point <accounts> <services> <quota>");
        points.push_back({spec.u32At(*line, 1), spec.u32At(*line, 2),
                          spec.u32At(*line, 3)});
    }

    // Quota clamps are expected here; silence the per-launch warnings
    // for this campaign only.
    const ScopedLogLevel quiet(LogLevel::Silent);
    const std::vector<std::vector<std::string>> rows = exp::runTrials(
        points.size(), seed,
        [&](exp::TrialContext &trial) {
            const Point &pt = points[trial.index];
            double cost = 0.0;
            const double occ = occupancyWithAccounts(
                profile, pt.accounts, pt.services, pt.quota, instances,
                seed + pt.accounts * 13 + pt.services, cost);
            return std::vector<std::string>{
                core::format("%u", pt.accounts),
                core::format("%u", pt.services),
                core::format("%u", pt.quota), core::percent(occ),
                core::format("%.1f", cost)};
        },
        ctx.threads);

    core::TextTable table;
    table.header({"accounts", "services/acct", "quota", "occupancy",
                  "cost (USD)"});
    for (const std::vector<std::string> &row : rows)
        table.row(row);
    table.print();
}
