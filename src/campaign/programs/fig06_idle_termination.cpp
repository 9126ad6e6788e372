/**
 * @file
 * Figure 6 / Experiment 1 kernel: instance distribution across hosts
 * and the decay of idle instances after disconnecting (paper §5.1).
 * Launch the configured burst, record the host footprint, disconnect,
 * and sample surviving idle instances over time. Knobs come from
 * bench/campaigns/fig06_idle_termination.scenario.
 *
 * Stays serial: every step samples the same platform's one burst.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "faas/platform.hpp"

EAAO_CAMPAIGN_PROGRAM(fig06_idle_termination)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    faas::Platform platform(cfg);
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);

    const std::uint32_t connect = spec.u32("workload", "connect");
    const int decay_half_min =
        spec.count("workload", "decay_half_minutes", campaign::kMaxMinutes);

    const auto ids = platform.connect(svc, connect);

    // Observation 1: near-uniform spread.
    std::map<hw::HostId, int> per_host;
    for (const auto id : ids)
        ++per_host[platform.oracleHostOf(id)];
    std::map<int, int> count_hist;
    for (const auto &[host, count] : per_host)
        ++count_hist[count];

    std::printf("%u instances placed onto %zu hosts "
                "(paper: 75 hosts)\n\n", connect, per_host.size());
    core::TextTable dist;
    dist.header({"instances/host", "hosts"});
    for (const auto &[count, hosts] : count_hist)
        dist.row({core::format("%d", count), core::format("%d", hosts)});
    dist.print();

    // Observation 2 / Figure 6: disconnect, then watch idle decay.
    platform.disconnectAll(svc);
    std::printf("\nidle instances after disconnecting:\n\n");
    core::TextTable decay;
    decay.header({"minutes", "idle instances"});
    for (int half_min = 0; half_min <= decay_half_min; ++half_min) {
        int idle = 0;
        for (const auto id : ids) {
            idle += (platform.instanceInfo(id).state ==
                     faas::InstanceState::Idle);
        }
        decay.row({core::format("%.1f", half_min * 0.5),
                   core::format("%d", idle)});
        platform.advance(sim::Duration::seconds(30));
    }
    decay.print();
}
