/**
 * @file
 * Section 5.2, Strategy 1 kernel: naive instance launching. The
 * attacker launches from cold services without any insight into the
 * placement policy; base hosts are account-affine, so coverage is zero
 * unless the attacker's and victim's base hosts happen to overlap.
 * Paper-expectation cells come from `paper` directives in [verify].
 *
 * Each (data center, victim account, run) triple is an independent
 * trial with its own Platform on the parallel harness; aggregation is
 * serial in trial order, so the table is identical for any --threads
 * value.
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

namespace {

struct DcSetup
{
    eaao::faas::DataCenterProfile profile;
    std::uint32_t shards[3]; // attacker, Account 2, Account 3
    std::string paper[2];
};

/** What one (DC, victim account, run) trial measured. */
struct TrialResult
{
    double coverage = 0.0;
    std::size_t attacker_hosts = 0;
};

} // namespace

EAAO_CAMPAIGN_PROGRAM(sec52_naive_strategy)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const int runs = spec.count("workload", "runs");
    const int services = spec.count("workload", "services");
    const std::uint32_t per_service =
        spec.u32("workload", "instances_per_service");
    const std::uint32_t victim_count =
        spec.u32("verify", "victim_instances");
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint64_t victim_stride =
        spec.u64("platform", "victim_seed_stride");

    std::printf("=== Section 5.2, Strategy 1: naive launching "
                "(%u instances, %d cold services) ===\n\n",
                services * per_service, services);

    // dc <profile> <shard x3> — shard assignments reproduce the
    // per-account accidents the paper observed; `paper <profile>
    // <acc2> <acc3>` carries the expected-coverage column.
    std::vector<DcSetup> dcs;
    for (const campaign::SpecLine *line :
         spec.directives("tenants", "dc")) {
        if (line->tokens.size() != 5)
            spec.fail(line->line_no,
                      "expected: dc <profile> <shard> <shard> <shard>");
        DcSetup dc;
        dc.profile = campaign::profileByName(spec, line->tokens[1],
                                             line->line_no);
        for (int s = 0; s < 3; ++s)
            dc.shards[s] =
                campaign::homeShard(spec, *line, 2 + s, dc.profile);
        dc.paper[0] = dc.paper[1] = "0%";
        dcs.push_back(dc);
    }
    for (const campaign::SpecLine *line :
         spec.directives("verify", "paper")) {
        if (line->tokens.size() != 4)
            spec.fail(line->line_no,
                      "expected: paper <profile> <acc2> <acc3>");
        bool matched = false;
        for (DcSetup &dc : dcs) {
            if (dc.profile.name == line->tokens[1]) {
                dc.paper[0] = line->tokens[2];
                dc.paper[1] = line->tokens[3];
                matched = true;
            }
        }
        if (!matched)
            spec.fail(line->line_no, "paper row names unknown DC '" +
                                         line->tokens[1] + "'");
    }

    // Trial index encodes (dc, victim, run) in the original nesting
    // order, so the serial aggregation below feeds each accumulator in
    // the order the serial loop did.
    const std::vector<TrialResult> trials = exp::runTrials(
        dcs.size() * 2 * runs, seed,
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
            const auto victim =
                platform.createAccount(dc.shards[1 + victim_idx]);

            const core::CampaignResult attack = core::runNaiveCampaign(
                platform, attacker, services, per_service);

            const auto vsvc =
                platform.deployService(victim, faas::ExecEnv::Gen1);
            const auto vids = platform.connect(vsvc, victim_count);
            TrialResult out;
            out.coverage = core::measureCoverageOracle(
                               platform, attack.occupied_hosts, vids)
                               .coverage();
            out.attacker_hosts = attack.occupied_hosts.size();
            return out;
        },
        ctx.threads);

    core::TextTable table;
    table.header({"DC / victim", "coverage", "(sd)",
                  "attacker hosts", "paper"});

    for (std::size_t d = 0; d < dcs.size(); ++d) {
        for (int victim_idx = 0; victim_idx < 2; ++victim_idx) {
            stats::OnlineStats coverage;
            std::size_t attacker_hosts = 0; // the last run's, as printed
            for (int run = 0; run < runs; ++run) {
                const TrialResult &t =
                    trials[(d * 2 + victim_idx) * runs + run];
                coverage.add(t.coverage);
                attacker_hosts = t.attacker_hosts;
            }
            table.row({dcs[d].profile.name + " / Acc" +
                           std::to_string(victim_idx + 2),
                       core::percent(coverage.mean()),
                       core::format("%.3f", coverage.stddev()),
                       core::format("%zu", attacker_hosts),
                       dcs[d].paper[victim_idx]});
        }
    }
    table.print();
}
