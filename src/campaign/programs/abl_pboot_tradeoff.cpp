/**
 * @file
 * Ablation kernel: the p_boot trade-off between instantaneous accuracy
 * and fingerprint lifetime (expiration ~ p_boot * f / eps, §4.4.2).
 * Sweeps p_boot over one launch plus a multi-hour tracking window and
 * reports both sides of the trade.
 *
 * Stays serial: every p_boot point rereads one platform's launch.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/fingerprint.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "core/tracker.hpp"
#include "faas/platform.hpp"
#include "stats/cdf.hpp"
#include "stats/clustering.hpp"

EAAO_CAMPAIGN_PROGRAM(abl_pboot_tradeoff)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);

    // One launch for the accuracy side...
    core::LaunchOptions launch;
    launch.instances = spec.u32("workload", "instances");
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(p, svc, launch);
    std::vector<std::uint64_t> oracle;
    for (const auto id : obs.ids)
        oracle.push_back(p.oracleHostOf(id));

    // ...and a long tracking window (one probe per host) for the
    // lifetime side.
    const int track_hours =
        spec.count("workload", "track_hours", campaign::kMaxHours);
    std::vector<faas::InstanceId> probes;
    {
        std::set<hw::HostId> seen;
        for (const auto id : obs.ids) {
            if (seen.insert(p.oracleHostOf(id)).second)
                probes.push_back(id);
        }
    }
    std::vector<core::FingerprintHistory> histories(probes.size());
    for (int hour = 0; hour <= track_hours; ++hour) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
            faas::SandboxView sbx = p.sandbox(probes[i]);
            histories[i].add(p.now(),
                             core::readGen1Median(sbx, 15).tboot_s);
        }
        p.advance(sim::Duration::hours(1));
    }

    core::TextTable table;
    table.header({"p_boot", "FMI", "precision", "recall",
                  "median expiration", "10% expire by"});
    for (const double p_boot : spec.numList("attack", "p_boots")) {
        std::vector<std::uint64_t> keys;
        for (const auto &reading : obs.readings) {
            keys.push_back(core::fingerprintKey(
                core::quantizeGen1(reading, p_boot)));
        }
        const auto pc = stats::comparePairs(keys, oracle);

        std::vector<double> expirations_d;
        for (const auto &history : histories) {
            const auto exp_s = history.expirationSeconds(p_boot);
            expirations_d.push_back(exp_s ? *exp_s / 86400.0 : 1e6);
        }
        const stats::EmpiricalCdf cdf(expirations_d);

        auto days = [](double d) {
            return d >= 1e5 ? std::string(">1000 d")
                            : core::format("%.1f d", d);
        };
        table.row({core::format("%g s", p_boot),
                   core::format("%.4f", pc.fmi()),
                   core::format("%.4f", pc.precision()),
                   core::format("%.4f", pc.recall()),
                   days(cdf.quantile(0.5)), days(cdf.quantile(0.1))});
    }
    table.print();
}
