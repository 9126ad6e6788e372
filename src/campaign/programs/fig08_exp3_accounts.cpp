/**
 * @file
 * Figure 8 / Experiment 3 kernel: apparent-host footprint across
 * accounts (paper §5.1). Accounts (with home shards) come from the
 * campaign's [tenants] section; the launch schedule — which account
 * fires each cold launch — from [workload] schedule.
 *
 * Stays serial: every launch lands on one shared platform.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "faas/platform.hpp"
#include "obs/export.hpp"

EAAO_CAMPAIGN_PROGRAM(fig08_exp3_accounts)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const obs::ObsConfig obs_cfg =
        obs::ObsConfig::fromArgs(ctx.argc, ctx.argv);
    obs::TrialSet obs_set(obs_cfg);
    obs_set.prepare(1);

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    cfg.obs = obs_set.observer(0);

    // account <shard> — one standard account per line, one Gen 1
    // service each.
    std::vector<std::uint32_t> shards;
    for (const campaign::SpecLine *line :
         spec.directives("tenants", "account")) {
        if (line->tokens.size() != 2)
            spec.fail(line->line_no, "expected: account <shard>");
        shards.push_back(campaign::homeShard(spec, *line, 1, cfg.profile));
    }
    // Each launch names its account by [tenants] index.
    const std::vector<std::uint32_t> schedule =
        spec.u32List("workload", "schedule");
    for (const std::uint32_t a : schedule) {
        if (a >= shards.size())
            spec.fail(spec.file().section("workload")->find("schedule")
                          ->line_no,
                      "schedule names account " + std::to_string(a) +
                          " (0-based), but [tenants] declares " +
                          std::to_string(shards.size()));
    }
    const int interval_min =
        spec.count("workload", "interval_minutes", campaign::kMaxMinutes);

    faas::Platform platform(cfg);
    std::vector<faas::AccountId> accounts;
    for (const std::uint32_t shard : shards)
        accounts.push_back(platform.createAccount(shard));
    std::vector<faas::ServiceId> services;
    for (const auto acct : accounts) {
        services.push_back(
            platform.deployService(acct, faas::ExecEnv::Gen1));
    }

    core::TextTable table;
    table.header({"launch", "account", "apparent hosts", "cumulative"});
    std::set<std::uint64_t> cumulative;
    for (std::size_t launch = 0; launch < schedule.size(); ++launch) {
        const int a = static_cast<int>(schedule[launch]);
        core::LaunchOptions opts;
        const core::LaunchObservation obs =
            core::launchAndObserve(platform, services[a], opts);
        const auto apparent = obs.apparentHosts();
        cumulative.insert(apparent.begin(), apparent.end());
        table.row({core::format("%d", static_cast<int>(launch) + 1),
                   core::format("%d", a + 1),
                   core::format("%zu", apparent.size()),
                   core::format("%zu", cumulative.size())});
        platform.advance(sim::Duration::minutes(interval_min) - opts.hold);
    }
    table.print();

    obs::writeOutputs(obs_cfg, obs_set);
}
