/**
 * @file
 * Ablation kernel: the two placement knobs DESIGN.md calls out — the
 * helper chunk size (how aggressively the load balancer spreads a hot
 * service) and the demand-window length — and their effect on the
 * attack surface. Sweeps come from the campaign's [workload] section.
 *
 * Each sweep point builds its own Platform, so the points run as
 * independent trials on the parallel harness; the rows print in sweep
 * order, identical for any --threads value.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"

namespace {

using namespace eaao;

/** One sweep point's table row, led by its knob value. */
using Cells = std::vector<std::string>;

Cells
evaluate(std::uint32_t knob, const faas::DataCenterProfile &profile,
         const faas::OrchestratorConfig &orch, std::uint64_t seed,
         std::uint32_t victim_count)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.orchestrator = orch;
    cfg.seed = seed;
    faas::Platform p(cfg);

    const auto attacker = p.createAccount(0);
    const auto victim = p.createAccount(1);

    // Primed footprint of a single service.
    const auto probe = p.deployService(attacker, faas::ExecEnv::Gen1);
    core::PrimeOptions prime;
    prime.keep_last_connected = false;
    const auto launches = core::primeService(p, probe, prime);
    std::set<std::uint64_t> footprint;
    for (const auto &obs : launches) {
        const auto hosts = obs.apparentHosts();
        footprint.insert(hosts.begin(), hosts.end());
    }
    p.advance(sim::Duration::minutes(45));

    // Full campaign and coverage.
    const auto attack =
        core::runOptimizedCampaign(p, attacker, core::CampaignConfig{});
    const auto vsvc = p.deployService(victim, faas::ExecEnv::Gen1);
    const auto vids = p.connect(vsvc, victim_count);
    const auto cov =
        core::measureCoverageOracle(p, attack.occupied_hosts, vids);

    const double occupancy =
        static_cast<double>(attack.occupied_hosts.size()) /
        static_cast<double>(p.fleet().size());
    return {core::format("%u", knob), core::format("%zu", footprint.size()),
            core::percent(occupancy), core::percent(cov.coverage())};
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(abl_placement_knobs)
{
    const campaign::CampaignSpec &spec = ctx.spec;

    const faas::DataCenterProfile base_profile =
        campaign::profileOf(spec, "platform", "profile");
    const std::uint64_t chunk_seed =
        spec.u64("platform", "chunk_seed");
    const std::uint64_t window_seed =
        spec.u64("platform", "window_seed");
    const std::uint32_t victim_count =
        spec.u32("verify", "victim_instances");
    const std::vector<std::uint32_t> chunks =
        spec.u32List("workload", "chunk_sweep");
    const std::vector<std::uint32_t> windows =
        spec.u32List("workload", "window_sweep", campaign::kMaxMinutes);

    // Trial i < chunks.size() is chunk point i; the window points
    // follow. Each point keeps its seed: base + knob value.
    const std::vector<Cells> rows = exp::runTrials(
        chunks.size() + windows.size(), chunk_seed,
        [&](exp::TrialContext &trial) {
            if (trial.index < chunks.size()) {
                const std::uint32_t chunk = chunks[trial.index];
                faas::DataCenterProfile profile = base_profile;
                profile.helper_chunk = chunk;
                return evaluate(chunk, profile, faas::OrchestratorConfig{},
                                chunk_seed + chunk, victim_count);
            }
            const std::uint32_t window_min =
                windows[trial.index - chunks.size()];
            faas::OrchestratorConfig orch;
            orch.demand_window = sim::Duration::minutes(window_min);
            return evaluate(window_min, base_profile, orch,
                            window_seed + window_min, victim_count);
        },
        ctx.threads);

    const auto print = [&](const char *knob, std::size_t first,
                           std::size_t count) {
        core::TextTable table;
        table.header({knob, "primed footprint", "occupancy",
                      "victim coverage"});
        for (std::size_t i = first; i < first + count; ++i)
            table.row(rows[i]);
        table.print();
    };

    std::printf("-- helper chunk (hosts added per hot launch) --\n");
    print("helper_chunk", 0, chunks.size());
    std::printf("\nchunk 0 disables the load balancer entirely: the "
                "optimized strategy\ndegenerates to the naive one "
                "(base hosts only, low cross-account coverage).\n\n");

    std::printf("-- demand window (hotness memory) --\n");
    print("window (min)", chunks.size(), windows.size());
}
