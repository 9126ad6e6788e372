/**
 * @file
 * Figure 5 kernel: CDF of the estimated Gen 1 fingerprint expiration
 * time (paper §4.4.2). Launch long-running instances per data center,
 * record their hosts' fingerprints hourly, treat restarts as new
 * hosts, fit each history's T_boot drift, and report the predicted
 * time to cross a p_boot rounding boundary. The closing average is
 * computed from the run, so it stays in this kernel; every knob comes
 * from bench/campaigns/fig05_expiration_cdf.scenario.
 *
 * Each data center is an independent trial with its own Platform on
 * the parallel harness; the columns print in profile order, identical
 * for any --threads value.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/fingerprint.hpp"
#include "core/report.hpp"
#include "core/tracker.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "sim/rng.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"

namespace {

/** Shortest fingerprint history the CDF counts, hours. */
constexpr int kMinHistoryHours = 24;

struct Fig05Knobs
{
    std::size_t instances = 50;
    int hours = 7 * 24;
    std::uint32_t connect = 800;
    double restart_prob_per_hour = 0.009;
    double p_boot = 1.0;
};

struct DcResult
{
    std::string name;
    std::size_t histories = 0;
    double min_abs_r = 1.0;
    std::vector<double> expiration_days;
};

DcResult
runDataCenter(const eaao::faas::DataCenterProfile &profile,
              std::uint64_t seed, const Fig05Knobs &knobs)
{
    using namespace eaao;
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = seed;
    faas::Platform platform(cfg);
    sim::Rng churn(seed * 977 + 5);

    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);

    // Launch a full base-host load and keep one long-running probe per
    // distinct host, so the histories cover ~75 hosts rather than the
    // handful a 50-instance launch would occupy.
    std::vector<faas::InstanceId> ids;
    {
        const auto all = platform.connect(svc, knobs.connect);
        std::set<hw::HostId> hosts;
        for (const auto id : all) {
            if (hosts.insert(platform.oracleHostOf(id)).second)
                ids.push_back(id);
        }
        if (ids.size() > knobs.instances)
            ids.resize(knobs.instances);
    }

    // One open history per tracked slot; restarts close it and open a
    // fresh one.
    std::vector<core::FingerprintHistory> open(ids.size());
    std::vector<core::FingerprintHistory> closed;

    for (int hour = 0; hour <= knobs.hours; ++hour) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (hour > 0 && churn.bernoulli(knobs.restart_prob_per_hour)) {
                // The platform terminated and replaced this instance;
                // conservatively treat the replacement as a new host.
                closed.push_back(std::move(open[i]));
                open[i] = core::FingerprintHistory();
                ids[i] = platform.restartInstance(ids[i]);
            }
            faas::SandboxView sbx = platform.sandbox(ids[i]);
            const core::Gen1Reading r = core::readGen1Median(sbx, 15);
            open[i].add(platform.now(), r.tboot_s);
        }
        platform.advance(sim::Duration::hours(1));
    }
    for (auto &history : open)
        closed.push_back(std::move(history));

    DcResult result;
    result.name = profile.name;
    for (const auto &history : closed) {
        if (history.span() < sim::Duration::hours(kMinHistoryHours))
            continue;
        ++result.histories;
        const stats::LinearFit fit = history.fitDrift();
        result.min_abs_r =
            std::min(result.min_abs_r, std::fabs(fit.r_value));
        const auto exp_s = history.expirationSeconds(knobs.p_boot);
        // A host whose drift is immeasurably small effectively never
        // expires within the horizon; clamp for the CDF tail.
        result.expiration_days.push_back(
            exp_s ? *exp_s / 86400.0 : 1e6);
    }
    return result;
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(fig05_expiration_cdf)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    Fig05Knobs knobs;
    knobs.instances = spec.u32("workload", "instances");
    knobs.hours = spec.count("workload", "hours", campaign::kMaxHours);
    const std::size_t hours_line =
        spec.file().section("workload")->find("hours")->line_no;
    if (knobs.hours < kMinHistoryHours) {
        spec.fail(hours_line, "'hours' expects at least " +
                                  std::to_string(kMinHistoryHours) +
                                  " (shorter fingerprint histories are "
                                  "not counted), got " +
                                  std::to_string(knobs.hours));
    }
    knobs.connect = spec.u32("workload", "connect");
    knobs.restart_prob_per_hour =
        spec.num("workload", "restart_prob_per_hour");
    knobs.p_boot = spec.num("attack", "p_boot");
    const std::uint64_t seed = spec.u64("workload", "seed");
    const std::vector<faas::DataCenterProfile> dcs =
        campaign::profileList(spec, "platform", "profiles", 3);

    const std::vector<DcResult> results = exp::runTrials(
        dcs.size(), seed,
        [&](exp::TrialContext &trial) {
            return runDataCenter(dcs[trial.index], seed + trial.index,
                                 knobs);
        },
        ctx.threads);
    // Restarts can still cut every history short; an empty CDF has no
    // quantiles to print.
    for (const DcResult &result : results) {
        if (result.histories == 0) {
            spec.fail(hours_line,
                      result.name + " has no fingerprint history of " +
                          std::to_string(kMinHistoryHours) +
                          " h or more; raise 'hours' or lower "
                          "'restart_prob_per_hour'");
        }
    }

    core::TextTable table;
    table.header({"days", results[0].name, results[1].name,
                  results[2].name});
    for (int day = 0; day <= 7; ++day) {
        std::vector<std::string> row = {core::format("%d", day)};
        for (const auto &result : results) {
            const stats::EmpiricalCdf cdf(result.expiration_days);
            row.push_back(core::format("%.3f",
                                       cdf.at(static_cast<double>(day))));
        }
        table.row(row);
    }
    table.print();

    std::printf("\n");
    core::TextTable meta;
    meta.header({"data center", "histories(>=24h)", "min |r|",
                 "t(10%% expired)"});
    double mean_p10 = 0.0;
    for (const auto &result : results) {
        const stats::EmpiricalCdf cdf(result.expiration_days);
        const double p10 = cdf.quantile(0.10);
        mean_p10 += p10 / static_cast<double>(results.size());
        meta.row({result.name, core::format("%zu", result.histories),
                  core::format("%.5f", result.min_abs_r),
                  core::format("%.2f d", p10)});
    }
    meta.print();
    std::printf("\naverage time for 10%% of fingerprints to expire: "
                "%.2f days (paper: ~2 days)\n"
                "paper shape: T_boot drifts linearly (min |r| = 0.9997); "
                "most fingerprints last multiple days.\n",
                mean_p10);
}
