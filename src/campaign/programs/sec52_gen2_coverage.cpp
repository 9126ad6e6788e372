/**
 * @file
 * Section 5.2 kernel: the optimized launching strategy in the Gen 2
 * environment (both attacker and victims run Gen 2 instances).
 *
 * Each (data center, victim account, run) triple runs as one
 * independent trial on the parallel harness; aggregation is serial in
 * trial order so the table is identical for any --threads value.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "stats/summary.hpp"
#include "support/bench_timer.hpp"

namespace {

struct DcSetup
{
    eaao::faas::DataCenterProfile profile;
    std::uint32_t shards[3];
    std::string paper[2];
};

} // namespace

EAAO_CAMPAIGN_PROGRAM(sec52_gen2_coverage)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;
    const unsigned threads = ctx.threads;

    const int runs = spec.count("workload", "runs");
    const std::uint32_t victim_count =
        spec.u32("verify", "victim_instances");
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint64_t victim_stride =
        spec.u64("platform", "victim_seed_stride");

    std::printf("=== Section 5.2: optimized strategy in the Gen 2 "
                "environment (%d runs) ===\n\n", runs);

    // dc <profile> <shard x3> <paper_acc2> <paper_acc3>
    std::vector<DcSetup> dcs;
    for (const campaign::SpecLine *line :
         spec.directives("tenants", "dc")) {
        if (line->tokens.size() != 7)
            spec.fail(line->line_no,
                      "expected: dc <profile> <shard> <shard> <shard> "
                      "<paper_acc2> <paper_acc3>");
        DcSetup dc;
        dc.profile = campaign::profileByName(spec, line->tokens[1],
                                             line->line_no);
        for (int s = 0; s < 3; ++s)
            dc.shards[s] =
                campaign::homeShard(spec, *line, 2 + s, dc.profile);
        dc.paper[0] = line->tokens[5];
        dc.paper[1] = line->tokens[6];
        dcs.push_back(dc);
    }

    const std::size_t n_trials = dcs.size() * 2 * runs;
    support::BenchTimer timer(spec.name(), threads, seed);
    const std::vector<double> coverages = exp::runTrials(
        n_trials, seed,
        [&](exp::TrialContext &trial) {
            const DcSetup &dc = dcs[trial.index / (2 * runs)];
            const int victim_idx =
                static_cast<int>((trial.index / runs) % 2);
            const int run = static_cast<int>(trial.index % runs);

            faas::PlatformConfig cfg;
            cfg.profile = dc.profile;
            cfg.seed = seed + victim_idx * victim_stride + run;
            faas::Platform platform(cfg);
            const auto attacker = platform.createAccount(dc.shards[0]);
            const auto victim = platform.createAccount(
                dc.shards[1 + victim_idx]);

            core::CampaignConfig campaign;
            campaign.env = faas::ExecEnv::Gen2;
            const core::CampaignResult attack =
                core::runOptimizedCampaign(platform, attacker,
                                           campaign);

            const auto vsvc = platform.deployService(
                victim, faas::ExecEnv::Gen2);
            const auto vids = platform.connect(vsvc, victim_count);
            return core::measureCoverageOracle(
                       platform, attack.occupied_hosts, vids)
                .coverage();
        },
        threads);
    support::maybeWriteBenchJson(ctx.argc, ctx.argv, timer.stop());

    core::TextTable table;
    table.header({"DC / victim", "coverage", "(sd)", "paper"});

    for (std::size_t d = 0; d < dcs.size(); ++d) {
        for (int victim_idx = 0; victim_idx < 2; ++victim_idx) {
            stats::OnlineStats coverage;
            for (int run = 0; run < runs; ++run)
                coverage.add(coverages[(d * 2 + victim_idx) * runs +
                                       run]);
            table.row({dcs[d].profile.name + " / Acc" +
                           std::to_string(victim_idx + 2),
                       core::percent(coverage.mean()),
                       core::format("%.3f", coverage.stddev()),
                       dcs[d].paper[victim_idx]});
        }
    }
    table.print();
}
