/**
 * @file
 * Figure 12 kernel: estimating the scale of each data center's Cloud
 * Run-style cluster by exploring hosts with the optimized strategy
 * (paper §5.2). The cumulative number of unique apparent hosts
 * flattens out, so its final value estimates the cluster size.
 *
 * Each data center is an independent trial with its own Platform on
 * the parallel harness; the columns print in profile order, identical
 * for any --threads value.
 */

#include <cstdio>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"

EAAO_CAMPAIGN_PROGRAM(fig12_cluster_size)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const std::vector<faas::DataCenterProfile> dcs =
        campaign::profileList(spec, "platform", "profiles", 3);
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint32_t accounts_per_dc =
        spec.u32("tenants", "accounts");
    const int services = spec.count("workload", "services");
    const int launches_per_service =
        spec.count("workload", "launches_per_service");
    const std::size_t total_launches = static_cast<std::size_t>(
        accounts_per_dc * services * launches_per_service);

    const std::vector<core::ExplorationResult> results = exp::runTrials(
        dcs.size(), seed,
        [&](exp::TrialContext &trial) {
            faas::PlatformConfig cfg;
            cfg.profile = dcs[trial.index];
            cfg.seed = seed + trial.index;
            faas::Platform platform(cfg);

            std::vector<faas::AccountId> accounts;
            for (std::uint32_t a = 0; a < accounts_per_dc; ++a) {
                accounts.push_back(platform.createAccount(
                    a % platform.fleet().shardCount()));
            }

            core::PrimeOptions prime; // 800 instances, 10-minute interval
            return core::exploreClusterSize(
                platform, accounts, services, launches_per_service, prime);
        },
        ctx.threads);

    core::TextTable table;
    table.header({"launch", dcs[0].name, dcs[1].name, dcs[2].name});
    for (std::size_t l = 0; l < total_launches; l += 8) {
        std::vector<std::string> row = {
            core::format("%zu", l + 1)};
        for (const auto &result : results) {
            row.push_back(core::format(
                "%zu", l < result.cumulative_unique.size()
                           ? result.cumulative_unique[l]
                           : result.total));
        }
        table.row(row);
    }
    std::vector<std::string> final_row = {
        core::format("%zu", total_launches)};
    for (const auto &result : results)
        final_row.push_back(core::format("%zu", result.total));
    table.row(final_row);
    table.print();

    std::printf("\ntotal unique apparent hosts found: %zu (%s), %zu "
                "(%s), %zu (%s)\npaper: 474 in us-east1, 1702 in "
                "us-central1, 199 in us-west1 — the curves\nflatten, "
                "so the totals estimate the cluster sizes.\n",
                results[0].total, dcs[0].name.c_str(),
                results[1].total, dcs[1].name.c_str(),
                results[2].total, dcs[2].name.c_str());
}
