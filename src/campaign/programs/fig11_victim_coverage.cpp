/**
 * @file
 * Figure 11 kernel: victim-instance coverage of the optimized
 * launching strategy (Strategy 2), sweeping the number of victim
 * instances (Fig. 11a) and the victim container size (Fig. 11b).
 *
 * Each (data center, victim account, run) triple is an independent
 * trial with its own Platform, fanned out across the trial harness;
 * aggregation is serial in trial-index order, so the printed tables
 * are byte-identical for any --threads value. The DC roster with its
 * per-account home shards, the sweeps, and the seeds all come from the
 * campaign file.
 */

#include <cstdio>
#include <map>
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
    // Home shards of attacker / Account 2 / Account 3, matching the
    // per-account accidents the paper observed (see DESIGN.md).
    std::uint32_t shards[3];
};

struct SweepPoint
{
    std::string label;
    std::uint32_t count;
    eaao::faas::ContainerSize size;
};

/** Raw samples produced by one (DC, victim account, run) trial. */
struct TrialSamples
{
    double cost_usd = 0.0;
    double host_fraction = 0.0;
    std::vector<double> cov_a;       // per count_sweep point
    std::vector<double> cov_b;       // per size_sweep point
    std::vector<double> any_coloc;   // default-config indicator samples
};

eaao::faas::ContainerSize
sizeByName(const eaao::campaign::CampaignSpec &spec,
           const std::string &name, unsigned line_no)
{
    using namespace eaao::faas;
    if (name == "pico")
        return sizes::kPico;
    if (name == "small")
        return sizes::kSmall;
    if (name == "medium")
        return sizes::kMedium;
    if (name == "large")
        return sizes::kLarge;
    spec.fail(line_no, "unknown container size '" + name +
                           "' (known: pico, small, medium, large)");
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(fig11_victim_coverage)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;
    const unsigned threads = ctx.threads;

    const int runs = spec.count("workload", "runs");
    std::printf("=== Figure 11: victim instance coverage, optimized "
                "strategy (%d runs each) ===\n\n", runs);

    // dc <profile> <attacker_shard> <acc2_shard> <acc3_shard>
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
        dcs.push_back(dc);
    }

    // sweep <a|b> <label> <count> <size>
    std::vector<SweepPoint> count_sweep, size_sweep;
    for (const campaign::SpecLine *line :
         spec.directives("workload", "sweep")) {
        if (line->tokens.size() != 5)
            spec.fail(line->line_no,
                      "expected: sweep <a|b> <label> <count> <size>");
        SweepPoint point;
        point.label = line->tokens[2];
        point.count = spec.u32At(*line, 3);
        point.size = sizeByName(spec, line->tokens[4], line->line_no);
        if (line->tokens[1] == "a")
            count_sweep.push_back(point);
        else if (line->tokens[1] == "b")
            size_sweep.push_back(point);
        else
            spec.fail(line->line_no, "sweep table must be 'a' or 'b'");
    }

    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint32_t any_count =
        spec.u32("verify", "any_coloc_count");
    const faas::ContainerSize any_size = sizeByName(
        spec, spec.str("verify", "any_coloc_size"),
        spec.file().section("verify")->line_no);

    // Trial index encodes (dc, victim, run) in the original nesting
    // order, so the serial aggregation below feeds every accumulator
    // in exactly the order the serial loop used to.
    const std::size_t n_trials = dcs.size() * 2 * runs;
    support::BenchTimer timer(spec.name(), threads, seed);
    const std::vector<TrialSamples> trials = exp::runTrials(
        n_trials, seed,
        [&](exp::TrialContext &trial) {
            const DcSetup &dc = dcs[trial.index / (2 * runs)];
            const int victim_idx =
                static_cast<int>((trial.index / runs) % 2);
            const int run = static_cast<int>(trial.index % runs);
            const std::string key =
                dc.profile.name + " / Acc" +
                std::to_string(victim_idx + 2);

            faas::PlatformConfig cfg;
            cfg.profile = dc.profile;
            cfg.seed = seed + sim::mix64(key.size() * 131 + run) %
                                  100000;
            faas::Platform platform(cfg);

            const auto attacker = platform.createAccount(dc.shards[0]);
            const auto victim = platform.createAccount(
                dc.shards[1 + victim_idx]);

            const core::CampaignResult attack =
                core::runOptimizedCampaign(platform, attacker,
                                           core::CampaignConfig{});

            TrialSamples out;
            out.cost_usd = attack.cost_usd;
            out.host_fraction =
                static_cast<double>(attack.occupied_hosts.size()) /
                static_cast<double>(platform.fleet().size());

            auto run_victim = [&](const SweepPoint &point,
                                  std::vector<double> &acc) {
                const auto vsvc = platform.deployService(
                    victim, faas::ExecEnv::Gen1, point.size);
                const auto vids = platform.connect(vsvc, point.count);
                const core::CoverageResult cov =
                    core::measureCoverageOracle(
                        platform, attack.occupied_hosts, vids);
                acc.push_back(cov.coverage());
                if (point.count == any_count &&
                    point.size.vcpus == any_size.vcpus) {
                    out.any_coloc.push_back(
                        cov.covered_instances > 0 ? 1.0 : 0.0);
                }
                platform.disconnectAll(vsvc);
                platform.advance(sim::Duration::minutes(16));
            };

            for (const SweepPoint &point : count_sweep)
                run_victim(point, out.cov_a);
            for (const SweepPoint &point : size_sweep)
                run_victim(point, out.cov_b);
            return out;
        },
        threads);
    support::maybeWriteBenchJson(ctx.argc, ctx.argv, timer.stop());

    // coverage[dc][victim][sweep-index] -> stats over runs
    std::map<std::string, std::vector<stats::OnlineStats>> table_a;
    std::map<std::string, std::vector<stats::OnlineStats>> table_b;
    std::map<std::string, stats::OnlineStats> any_coloc;
    std::map<std::string, stats::OnlineStats> host_fraction;
    stats::OnlineStats cost_stats;

    for (std::size_t i = 0; i < trials.size(); ++i) {
        const DcSetup &dc = dcs[i / (2 * runs)];
        const int victim_idx = static_cast<int>((i / runs) % 2);
        const std::string key = dc.profile.name + " / Acc" +
                                std::to_string(victim_idx + 2);
        table_a[key].resize(count_sweep.size());
        table_b[key].resize(size_sweep.size());

        const TrialSamples &t = trials[i];
        cost_stats.add(t.cost_usd);
        host_fraction[dc.profile.name].add(t.host_fraction);
        for (std::size_t p = 0; p < t.cov_a.size(); ++p)
            table_a[key][p].add(t.cov_a[p]);
        for (std::size_t p = 0; p < t.cov_b.size(); ++p)
            table_b[key][p].add(t.cov_b[p]);
        for (const double sample : t.any_coloc)
            any_coloc[key].add(sample);
    }

    auto print_sweep =
        [&](const char *title, const std::vector<SweepPoint> &sweep,
            std::map<std::string, std::vector<stats::OnlineStats>> &t) {
            std::printf("%s\n", title);
            core::TextTable table;
            std::vector<std::string> head = {"DC / victim"};
            for (const auto &point : sweep) {
                head.push_back(point.label);
                head.push_back("(sd)");
            }
            table.header(head);
            for (auto &[key, cells] : t) {
                std::vector<std::string> row = {key};
                for (const auto &acc : cells) {
                    row.push_back(core::percent(acc.mean()));
                    row.push_back(core::format("%.3f", acc.stddev()));
                }
                table.row(row);
            }
            table.print();
            std::printf("\n");
        };

    print_sweep("-- Fig 11a: varying victim instance count (Small) --",
                count_sweep, table_a);
    print_sweep("-- Fig 11b: varying victim size (100 instances) --",
                size_sweep, table_b);

    std::printf("-- probability of co-locating with at least one "
                "victim instance (default config) --\n");
    core::TextTable anyt;
    anyt.header({"DC / victim", "P(>=1 co-location)"});
    for (const auto &[key, acc] : any_coloc)
        anyt.row({key, core::percent(acc.mean(), 0)});
    anyt.print();

    std::printf("\n-- attacker host occupancy and cost --\n");
    core::TextTable occ;
    occ.header({"DC", "fraction of fleet occupied"});
    for (const auto &[name, acc] : host_fraction)
        occ.row({name, core::percent(acc.mean())});
    occ.print();
    std::printf("\naverage attack cost: %.1f USD per campaign "
                "(paper: 23-27 USD)\n", cost_stats.mean());
}
