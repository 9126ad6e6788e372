/**
 * @file
 * Section 4.2 kernel: comparing the two TSC-frequency derivation
 * methods. Method 1 uses the reported (labeled) frequency — always
 * available, but slightly wrong, so fingerprints drift and expire.
 * Method 2 measures against the wall clock — drift-free, but on ~10%
 * of hosts the measurement scatters, causing false negatives.
 *
 * Stays serial: both methods measure one shared platform.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/fingerprint.hpp"
#include "core/freq_estimator.hpp"
#include "core/report.hpp"
#include "faas/platform.hpp"
#include "stats/summary.hpp"

EAAO_CAMPAIGN_PROGRAM(sec42_freq_methods)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    faas::Platform platform(cfg);

    const std::uint32_t connect = spec.u32("workload", "connect");

    // Reach hosts across many shards by launching from one account per
    // shard (the paper reached 586 hosts over repeated experiments).
    std::vector<faas::InstanceId> probes; // one probe per host
    std::set<hw::HostId> seen;
    for (std::uint32_t shard = 0; shard < platform.fleet().shardCount();
         ++shard) {
        const auto acct = platform.createAccount(shard);
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        const auto ids = platform.connect(svc, connect);
        for (const auto id : ids) {
            const hw::HostId host = platform.oracleHostOf(id);
            if (seen.insert(host).second)
                probes.push_back(id);
        }
    }
    std::printf("evaluating %zu hosts\n\n", probes.size());

    // Method 2: measure the frequency on every host, 10 reps x 100 ms.
    std::size_t problematic = 0;
    stats::OnlineStats clean_sigma, noisy_sigma;
    stats::OnlineStats label_err;
    for (const auto id : probes) {
        faas::SandboxView sbx = platform.sandbox(id);
        const core::FrequencyEstimate est =
            core::measuredFrequencyHz(sbx);
        if (!est.stable()) {
            ++problematic;
            noisy_sigma.add(est.stddev_hz);
        } else {
            clean_sigma.add(est.stddev_hz);
        }
        const auto &tsc =
            platform.fleet().host(platform.oracleHostOf(id)).tsc();
        label_err.add(std::fabs(tsc.trueHz() - tsc.nominalHz()));
    }

    core::TextTable table;
    table.header({"metric", "value", "paper"});
    table.row({"hosts evaluated",
               core::format("%zu", probes.size()), "586"});
    table.row({"problematic hosts (method 2)",
               core::format("%zu (%.1f%%)", problematic,
                            100.0 * static_cast<double>(problematic) /
                                static_cast<double>(probes.size())),
               "58 (~10%)"});
    table.row({"median sigma, stable hosts",
               core::format("%.0f Hz", clean_sigma.mean()),
               "< 100 Hz"});
    table.row({"sigma range, problematic hosts",
               core::format("%.0f kHz .. %.1f MHz",
                            noisy_sigma.min() / 1e3,
                            noisy_sigma.max() / 1e6),
               "10 kHz .. few MHz"});
    table.row({"mean |reported-freq error|",
               core::format("%.0f Hz", label_err.mean()),
               "up to a few MHz (tail)"});
    table.print();

    // Consequence for method 1: drift and expiration.
    std::printf("\nmethod-1 drift examples (Eq. 4.2): expiration = "
                "p_boot * f / |eps|\n\n");
    core::TextTable drift;
    drift.header({"|eps|", "drift per day", "expiration (p_boot=1s)"});
    for (const double eps : spec.numList("workload", "eps_sweep")) {
        const double rate = eps / 2.0e9;
        drift.row({core::format("%.0f Hz", eps),
                   core::format("%.1f ms", rate * 86400.0 * 1e3),
                   core::format("%.2f d", 1.0 / (rate * 86400.0))});
    }
    drift.print();
}
