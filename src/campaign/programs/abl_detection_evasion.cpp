/**
 * @file
 * Ablation kernel: evading contention detection by fragmenting
 * verification into short episodes spaced wider than the detector
 * window. Every episode stays under the burst threshold, at the price
 * of stretching a one-minute verification into tens of minutes of
 * billed instance time. Plans come from `plan` directives in [attack].
 *
 * Each plan builds its own Platform, so the plans run as independent
 * trials on the parallel harness; the rows print in file order,
 * identical for any --threads value.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "channel/covert.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "defense/detector.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "stats/clustering.hpp"

namespace {

using namespace eaao;

struct Plan
{
    std::string label;
    std::uint32_t episodes;
    std::uint32_t trials_per_episode;
    sim::Duration episode_gap;
};

struct Outcome
{
    std::size_t flagged = 0;
    sim::Duration elapsed;
    double cost_usd = 0.0;
    std::uint64_t pair_errors = 0;
};

Outcome
run(const faas::DataCenterProfile &profile, const Plan &plan,
    std::uint32_t instances, std::uint64_t seed)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = seed;
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    core::LaunchOptions launch;
    launch.instances = instances;
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(p, svc, launch);

    defense::ContentionDetector detector;
    channel::RngChannelConfig chan_cfg;
    chan_cfg.trials = plan.trials_per_episode;
    chan_cfg.detect_min = plan.trials_per_episode / 2;
    channel::RngChannel chan(p, chan_cfg);
    chan.attachDetector(&detector);

    std::map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < obs.ids.size(); ++i)
        groups[obs.fp_keys[i]].push_back(i);

    const sim::SimTime start = p.now();
    std::map<std::size_t, std::uint32_t> positive_episodes;
    std::size_t max_flagged = 0;

    for (std::uint32_t e = 0; e < plan.episodes; ++e) {
        for (const auto &[key, members] : groups) {
            if (members.size() < 2)
                continue;
            std::vector<faas::InstanceId> group;
            for (const auto idx : members)
                group.push_back(obs.ids[idx]);
            const auto m = static_cast<std::uint32_t>(
                std::min<std::size_t>((members.size() + 2) / 2, 16));
            const auto result = chan.run(group, m);
            for (std::size_t i = 0; i < members.size(); ++i) {
                if (result.positive[i])
                    ++positive_episodes[members[i]];
            }
            max_flagged =
                std::max(max_flagged,
                         detector.flaggedHosts(p.now()).size());
        }
        if (e + 1 < plan.episodes)
            p.advance(plan.episode_gap);
    }
    max_flagged =
        std::max(max_flagged, detector.flaggedHosts(p.now()).size());

    // Aggregate: positive in a majority of episodes => co-located with
    // its fingerprint group.
    std::vector<std::uint64_t> clusters(obs.ids.size());
    for (std::size_t i = 0; i < clusters.size(); ++i)
        clusters[i] = 1000000 + i;
    for (const auto &[key, members] : groups) {
        for (const auto idx : members) {
            const auto it = positive_episodes.find(idx);
            const std::uint32_t wins =
                it == positive_episodes.end() ? 0 : it->second;
            if (wins * 2 > plan.episodes)
                clusters[idx] = key;
        }
    }

    std::vector<std::uint64_t> oracle;
    for (const auto id : obs.ids)
        oracle.push_back(p.oracleHostOf(id));
    const auto pc = stats::comparePairs(clusters, oracle);

    Outcome out;
    out.flagged = max_flagged;
    out.elapsed = p.now() - start;
    out.cost_usd = static_cast<double>(instances) *
                   out.elapsed.secondsF() *
                   faas::PricingModel{}.usdPerActiveSecond(
                       faas::sizes::kSmall);
    out.pair_errors = pc.fp + pc.fn;
    return out;
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(abl_detection_evasion)
{
    const campaign::CampaignSpec &spec = ctx.spec;

    std::printf("detector: %u bursts per host within a 10-minute "
                "window raise a flag.\n\n",
                eaao::defense::DetectorConfig{}.burst_threshold);

    const faas::DataCenterProfile profile =
        campaign::profileOf(spec, "platform", "profile");
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint32_t instances = spec.u32("workload", "instances");

    // plan "<label>" <episodes> <trials_per_episode> <gap_minutes>
    std::vector<Plan> plans;
    for (const campaign::SpecLine *line :
         spec.directives("attack", "plan")) {
        if (line->tokens.size() != 5)
            spec.fail(line->line_no,
                      "expected: plan <label> <episodes> "
                      "<trials_per_episode> <gap_minutes>");
        Plan plan;
        plan.label = line->tokens[1];
        plan.episodes = spec.u32At(*line, 2);
        plan.trials_per_episode = spec.u32At(*line, 3);
        plan.episode_gap = sim::Duration::minutes(
            spec.u32At(*line, 4, campaign::kMaxMinutes));
        plans.push_back(plan);
    }

    const std::vector<Outcome> outcomes = exp::runTrials(
        plans.size(), seed,
        [&](exp::TrialContext &trial) {
            return run(profile, plans[trial.index], instances,
                       seed + trial.index);
        },
        ctx.threads);

    core::TextTable table;
    table.header({"plan", "hosts flagged (max)", "wall time",
                  "cost (USD)", "pair errors"});
    for (std::size_t r = 0; r < plans.size(); ++r) {
        const Outcome &out = outcomes[r];
        table.row({plans[r].label, core::format("%zu", out.flagged),
                   out.elapsed.str(),
                   core::format("%.2f", out.cost_usd),
                   core::format("%llu",
                                static_cast<unsigned long long>(
                                    out.pair_errors))});
    }
    table.print();
}
