/**
 * @file
 * Ablation kernel: robustness of the covert-channel verification
 * pipeline. Each `arm` directive degrades the channel — background
 * contention, per-unit detection probability, trial count — and the
 * table reports clustering accuracy and the test count (noise pushes
 * groups onto the pairwise fallback path).
 *
 * Each arm builds its own Platform, so the arms run as independent
 * trials on the parallel harness; the rows print in file order,
 * identical for any --threads value.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "channel/covert.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "stats/clustering.hpp"

namespace {

struct Row
{
    eaao::channel::RngChannelConfig chan;
    std::string label;
};

} // namespace

EAAO_CAMPAIGN_PROGRAM(abl_channel_robustness)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const faas::DataCenterProfile profile =
        campaign::profileOf(spec, "platform", "profile");
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint32_t instances = spec.u32("workload", "instances");

    // arm "<label>" <trials> <detect_min> <background_prob> <unit_detect_prob>
    std::vector<Row> rows;
    for (const campaign::SpecLine *line :
         spec.directives("attack", "arm")) {
        if (line->tokens.size() != 6)
            spec.fail(line->line_no,
                      "expected: arm <label> <trials> <detect_min> "
                      "<background_prob> <unit_detect_prob>");
        Row row;
        row.label = line->tokens[1];
        row.chan.trials = spec.u32At(*line, 2);
        row.chan.detect_min = spec.u32At(*line, 3);
        row.chan.background_prob = spec.numAt(*line, 4);
        row.chan.unit_detect_prob = spec.numAt(*line, 5);
        rows.push_back(row);
    }

    const std::vector<std::vector<std::string>> cells = exp::runTrials(
        rows.size(), seed,
        [&](exp::TrialContext &trial) {
            const Row &row = rows[trial.index];
            faas::PlatformConfig cfg;
            cfg.profile = profile;
            cfg.seed = seed + trial.index;
            faas::Platform p(cfg);
            const auto acct = p.createAccount();
            const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
            core::LaunchOptions launch;
            launch.instances = instances;
            launch.disconnect_after = false;
            const auto obs = core::launchAndObserve(p, svc, launch);

            channel::RngChannel chan(p, row.chan);
            const auto result = core::verifyScalable(
                p, chan, obs.ids, obs.fp_keys, obs.class_keys);

            std::vector<std::uint64_t> oracle;
            for (const auto id : obs.ids)
                oracle.push_back(p.oracleHostOf(id));
            const auto pc = stats::comparePairs(result.cluster_of, oracle);

            return std::vector<std::string>{
                row.label,
                core::format("%llu", static_cast<unsigned long long>(
                                         result.group_tests)),
                core::format("%.4f", pc.precision()),
                core::format("%.4f", pc.recall()), result.elapsed.str()};
        },
        ctx.threads);

    core::TextTable table;
    table.header({"channel", "tests", "precision", "recall",
                  "test time"});
    for (const std::vector<std::string> &row : cells)
        table.row(row);
    table.print();
}
