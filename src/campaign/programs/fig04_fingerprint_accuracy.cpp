/**
 * @file
 * Figure 4 kernel: Gen 1 fingerprint accuracy (FMI / precision /
 * recall) as a function of the T_boot rounding precision p_boot.
 *
 * Protocol (paper Section 4.4.1): in each data center, launch the
 * configured number of concurrent instances, record each instance's
 * raw T_boot reading, generate the co-location ground truth with the
 * scalable covert-channel methodology, then sweep p_boot and score
 * the fingerprints with pair-counting metrics. All knobs — the DC
 * list, instance count, runs, seeds, and the p_boot sweep — come from
 * the campaign file (bench/campaigns/fig04_fingerprint_accuracy.scenario).
 */

#include <cstdio>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/fingerprint.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "stats/clustering.hpp"
#include "stats/summary.hpp"
#include "support/bench_timer.hpp"
#include "support/options.hpp"

namespace {

struct RunData
{
    std::vector<eaao::core::Gen1Reading> readings;
    std::vector<std::uint64_t> truth; // channel-verified clusters
};

RunData
collectRun(const eaao::faas::DataCenterProfile &profile,
           std::uint64_t seed, std::uint32_t instances)
{
    using namespace eaao;
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = seed;
    faas::Platform platform(cfg);
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);

    core::LaunchOptions launch;
    launch.instances = instances;
    launch.disconnect_after = false;
    const core::LaunchObservation obs =
        core::launchAndObserve(platform, svc, launch);

    channel::RngChannel chan(platform);
    const core::VerifyResult verified = core::verifyScalable(
        platform, chan, obs.ids, obs.fp_keys, obs.class_keys);

    RunData run;
    run.readings = obs.readings;
    run.truth = verified.cluster_of;
    return run;
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(fig04_fingerprint_accuracy)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;
    const unsigned threads = ctx.threads;

    const std::uint32_t instances = spec.u32("workload", "instances");
    const int runs_per_dc = spec.count("workload", "runs_per_dc");
    const std::uint64_t seed = spec.u64("workload", "seed");
    const std::uint64_t dc_stride = spec.u64("workload", "dc_seed_stride");
    const std::vector<double> p_boots = spec.numList("attack", "p_boots");
    const std::vector<faas::DataCenterProfile> dcs =
        campaign::profileList(spec, "platform", "profiles");

    // Collect all runs once — each (DC, run) pair is an independent
    // trial fanned out across the worker pool; slot-per-trial results
    // keep the sweep below byte-identical for any thread count. The
    // p_boot sweep itself is offline over the recorded readings.
    support::BenchTimer timer(spec.name(), threads, seed);
    const std::vector<RunData> runs = exp::runTrials(
        dcs.size() * runs_per_dc, seed,
        [&](exp::TrialContext &trial) {
            const std::size_t d = trial.index / runs_per_dc;
            const std::size_t r = trial.index % runs_per_dc;
            return collectRun(dcs[d], seed + d * dc_stride + r, instances);
        },
        threads);
    support::maybeWriteBenchJson(ctx.argc, ctx.argv, timer.stop());

    core::TextTable table;
    table.header({"p_boot", "FMI", "FMI(sd)", "precision", "prec(sd)",
                  "recall", "rec(sd)"});

    for (const double p_boot : p_boots) {
        stats::OnlineStats fmi, precision, recall;
        for (const RunData &run : runs) {
            std::vector<std::uint64_t> keys;
            keys.reserve(run.readings.size());
            for (const auto &reading : run.readings) {
                keys.push_back(core::fingerprintKey(
                    core::quantizeGen1(reading, p_boot)));
            }
            const stats::PairConfusion pc =
                stats::comparePairs(keys, run.truth);
            fmi.add(pc.fmi());
            precision.add(pc.precision());
            recall.add(pc.recall());
        }
        table.row({core::format("%8.0e s", p_boot),
                   core::format("%.4f", fmi.mean()),
                   core::format("%.4f", fmi.stddev()),
                   core::format("%.4f", precision.mean()),
                   core::format("%.4f", precision.stddev()),
                   core::format("%.4f", recall.mean()),
                   core::format("%.4f", recall.stddev())});
    }
    table.print();
}
