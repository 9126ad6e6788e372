/**
 * @file
 * Section 4.5 kernel: accuracy of the Gen 2 fingerprint
 * (kernel-refined host TSC frequency). Same setup as the Gen 1
 * accuracy evaluation, but fingerprints are the refined frequency read
 * inside the guest: low precision, zero false negatives, so Step-2
 * verification can run fully parallel with no Step 3.
 *
 * Each (data center, run) pair is an independent trial with its own
 * Platform on the parallel harness; the statistics fold serially in
 * trial order, so the table is identical for any --threads value.
 */

#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "stats/clustering.hpp"
#include "stats/summary.hpp"

namespace {

/** What one (data center, run) trial measured. */
struct TrialResult
{
    double fmi = 0.0;
    double precision = 0.0;
    double recall = 0.0;
    std::uint64_t false_negatives = 0;
    double hosts_per_fp = 0.0;
    double waves_parallel = 0.0;
    double waves_serial = 0.0;
};

} // namespace

EAAO_CAMPAIGN_PROGRAM(sec45_gen2_accuracy)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const std::uint32_t instances = spec.u32("workload", "instances");
    const int runs_per_dc = spec.count("workload", "runs_per_dc");
    const std::vector<faas::DataCenterProfile> dcs =
        campaign::profileList(spec, "platform", "profiles");
    const std::uint64_t seed = spec.u64("platform", "seed");
    const std::uint64_t dc_stride =
        spec.u64("platform", "dc_seed_stride");

    std::printf("=== Section 4.5: Gen 2 fingerprint accuracy "
                "(%u instances, %d runs x %zu DCs) ===\n\n",
                instances, runs_per_dc, dcs.size());

    const std::vector<TrialResult> trials = exp::runTrials(
        dcs.size() * runs_per_dc, seed,
        [&](exp::TrialContext &trial) {
            const std::size_t d = trial.index / runs_per_dc;
            const int run = static_cast<int>(trial.index % runs_per_dc);
            faas::PlatformConfig cfg;
            cfg.profile = dcs[d];
            cfg.seed = seed + d * dc_stride + run;
            faas::Platform platform(cfg);
            const auto acct = platform.createAccount();
            const auto svc =
                platform.deployService(acct, faas::ExecEnv::Gen2);

            core::LaunchOptions launch;
            launch.instances = instances;
            launch.disconnect_after = false;
            const core::LaunchObservation obs =
                core::launchAndObserve(platform, svc, launch);

            std::vector<std::uint64_t> oracle;
            for (const auto id : obs.ids)
                oracle.push_back(platform.oracleHostOf(id));

            TrialResult out;
            const auto pc = stats::comparePairs(obs.fp_keys, oracle);
            out.fmi = pc.fmi();
            out.precision = pc.precision();
            out.recall = pc.recall();
            out.false_negatives = pc.fn;

            // Hosts per fingerprint (averaged over fingerprints).
            std::map<std::uint64_t, std::set<std::uint64_t>> by_fp;
            for (std::size_t i = 0; i < obs.fp_keys.size(); ++i)
                by_fp[obs.fp_keys[i]].insert(oracle[i]);
            double sum = 0.0;
            for (const auto &[key, hosts] : by_fp)
                sum += static_cast<double>(hosts.size());
            out.hosts_per_fp = sum / static_cast<double>(by_fp.size());

            // Verification benefit: Gen 2 allows fully parallel Step 2
            // and skips Step 3.
            channel::RngChannel chan_par(platform);
            core::VerifyOptions par;
            par.no_false_negatives = true;
            out.waves_parallel = static_cast<double>(
                core::verifyScalable(platform, chan_par, obs.ids,
                                     obs.fp_keys, obs.class_keys, par)
                    .waves);

            channel::RngChannel chan_ser(platform);
            core::VerifyOptions ser;
            ser.parallelize = false;
            out.waves_serial = static_cast<double>(
                core::verifyScalable(platform, chan_ser, obs.ids,
                                     obs.fp_keys, obs.class_keys, ser)
                    .waves);
            return out;
        },
        ctx.threads);

    stats::OnlineStats fmi, precision, recall, hosts_per_fp;
    std::uint64_t total_fn = 0;
    stats::OnlineStats waves_parallel, waves_serial;
    for (const TrialResult &t : trials) {
        fmi.add(t.fmi);
        precision.add(t.precision);
        recall.add(t.recall);
        total_fn += t.false_negatives;
        hosts_per_fp.add(t.hosts_per_fp);
        waves_parallel.add(t.waves_parallel);
        waves_serial.add(t.waves_serial);
    }

    core::TextTable table;
    table.header({"metric", "measured", "paper"});
    table.row({"FMI", core::format("%.3f", fmi.mean()), "0.66"});
    table.row({"precision", core::format("%.3f", precision.mean()),
               "0.48"});
    table.row({"recall", core::format("%.3f", recall.mean()), "1.0"});
    table.row({"false negatives (total)",
               core::format("%llu",
                            static_cast<unsigned long long>(total_fn)),
               "0 (structural)"});
    table.row({"avg hosts per fingerprint",
               core::format("%.2f", hosts_per_fp.mean()), "2.0"});
    table.row({"verification waves, parallel Step 2",
               core::format("%.1f", waves_parallel.mean()), "-"});
    table.row({"verification waves, serialized",
               core::format("%.1f", waves_serial.mean()), "-"});
    table.print();
}
