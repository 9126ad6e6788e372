/**
 * @file
 * Indexed-vs-reference oracle: the incremental placement/routing/spend
 * indexes must make exactly the decisions their brute-force
 * definitions (testkit/reference.hpp) make, not just statistically
 * similar ones. A randomized multi-service workload runs once under a
 * testkit::ReferenceAudit, which checks every routed request, every
 * placement (cold-base, hot-helper, cold-overflow, cold-spill) and
 * every spend poll as it happens. Spend is compared
 * bit-exactly, which is stronger than the "agree to the cent" contract
 * the experiments rely on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "faas/platform.hpp"
#include "faas/trace.hpp"
#include "sim/rng.hpp"
#include "testkit/reference.hpp"

namespace eaao {
namespace {

/** One scripted operation of the random workload. */
struct Op
{
    enum Kind : std::uint8_t {
        Route,
        Connect,
        Advance,
        SpendProbe,
        DisconnectAll,
        Restart,
        SetConcurrency,
    };
    Kind kind = Route;
    std::uint32_t a = 0; //!< service index / instance pick / limit
    std::uint32_t b = 0; //!< connect size / duration knob
};

std::vector<Op>
makeScript(std::uint64_t seed, std::size_t steps)
{
    sim::Rng rng(seed);
    std::vector<Op> script;
    script.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        Op op;
        const std::uint64_t roll = rng.uniformInt(std::uint64_t{10});
        switch (roll) {
        case 0:
        case 1:
        case 2:
        case 3: op.kind = Op::Route; break;
        case 4: op.kind = Op::Connect; break;
        case 5: op.kind = Op::Advance; break;
        case 6: op.kind = Op::SpendProbe; break;
        case 7: op.kind = Op::DisconnectAll; break;
        case 8: op.kind = Op::Restart; break;
        default: op.kind = Op::SetConcurrency; break;
        }
        op.a = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{1} << 30));
        op.b = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{1} << 30));
        script.push_back(op);
    }
    return script;
}

/** What one audited replay of the script did. */
struct AuditedRun
{
    std::string mismatch;      //!< first disagreement; empty if none
    std::size_t cold_base = 0; //!< audited cold-base placements
};

faas::PlatformConfig
eastConfig(std::uint64_t seed, std::uint32_t fault = 0)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.seed = seed;
    cfg.orchestrator.fault_injection = fault;
    return cfg;
}

AuditedRun
runWorkload(const std::vector<Op> &script, const faas::PlatformConfig &cfg)
{
    faas::Platform platform(cfg);
    faas::Orchestrator &orch = platform.orchestrator();

    faas::PlacementTrace trace;
    orch.attachTrace(&trace);
    testkit::ReferenceAudit audit(platform, trace);

    const auto acct_a = platform.createAccount();
    const auto acct_b = platform.createAccount(2);
    std::vector<faas::ServiceId> svcs;
    for (int s = 0; s < 3; ++s)
        svcs.push_back(platform.deployService(acct_a, faas::ExecEnv::Gen1));
    svcs.push_back(platform.deployService(acct_b, faas::ExecEnv::Gen1));

    std::vector<faas::InstanceId> created;
    for (std::size_t i = 0; i < script.size(); ++i) {
        const Op &op = script[i];
        const std::string where = "op " + std::to_string(i);
        const auto svc = svcs[op.a % svcs.size()];
        switch (op.kind) {
        case Op::Route: {
            const double service_s =
                0.02 + 0.01 * static_cast<double>(op.b % 6);
            audit.route(svc, sim::Duration::fromSecondsF(service_s), where);
            break;
        }
        case Op::Connect: {
            const auto ids = audit.connect(svc, 10 + op.b % 50, where);
            created.insert(created.end(), ids.begin(), ids.end());
            break;
        }
        case Op::Advance:
            platform.advance(
                sim::Duration::fromSecondsF(0.05 + 0.25 * (op.b % 8)));
            break;
        case Op::SpendProbe:
            audit.spend(acct_a, where);
            audit.spend(acct_b, where);
            break;
        case Op::DisconnectAll:
            platform.disconnectAll(svc);
            break;
        case Op::Restart: {
            if (created.empty())
                break;
            const auto id = created[op.b % created.size()];
            if (platform.instanceInfo(id).state ==
                faas::InstanceState::Terminated)
                break;
            audit.restart(id, where);
            break;
        }
        case Op::SetConcurrency:
            orch.setMaxConcurrency(svc, 1 + op.b % 4);
            break;
        }
    }

    // Let in-flight work and idle reaps settle, then take the final
    // spends (the settle-on-transition paths all fire here).
    platform.advance(sim::Duration::minutes(30));
    audit.spend(acct_a, "final");
    audit.spend(acct_b, "final");

    orch.attachTrace(nullptr);
    return {audit.mismatch(),
            trace.countByReason(faas::PlacementReason::ColdBase)};
}

TEST(IndexedOracle, RandomWorkloadMatchesReferenceScan)
{
    for (const std::uint64_t seed : {7ULL, 20260806ULL, 999331ULL}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const AuditedRun run =
            runWorkload(makeScript(seed ^ 0x5eed, 400), eastConfig(seed));
        EXPECT_EQ(run.mismatch, "");
        EXPECT_GT(run.cold_base, 0u);
    }
}

TEST(IndexedOracle, AuditCatchesPlantedFaults)
{
    // The audit is not vacuous: fault 1 (routing picks the newest
    // spare instance) and fault 2 (demand prefix one host short) each
    // perturb one indexed decision, and the same workload that passes
    // clean must now report a mismatch.
    const auto script = makeScript(7 ^ 0x5eed, 400);
    for (const std::uint32_t fault : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << "fault " << fault);
        EXPECT_NE(runWorkload(script, eastConfig(7, fault)).mismatch, "");
    }
}

TEST(IndexedOracle, DynamicPlacementProfileMatchesReferenceScan)
{
    // us-central1 re-jitters the base order every launch, forcing a
    // placement-index rebuild per scale-out; the rebuilt tree must
    // keep agreeing with the brute-force pick.
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usCentral1();
    cfg.seed = 42;
    auto script = makeScript(0xcafe, 250);
    for (std::size_t i = 0; i < script.size(); i += 5)
        script[i].kind = Op::Connect;
    const AuditedRun run = runWorkload(script, cfg);
    EXPECT_EQ(run.mismatch, "");
    EXPECT_GT(run.cold_base, 0u);
}

TEST(IndexedOracle, HelperAndSpillPicksMatchReferenceScans)
{
    // Two services of one account take turns: each launch re-jitters
    // the account's base order, and then the *other* service, hot from
    // its own earlier bursts, takes more requests than it has idle
    // instances and places the rest (helper picks over the fresh base
    // order). us-central1 also leaks cold placements (spill picks).
    for (const bool dynamic : {false, true}) {
        for (const bool isolate : {false, true}) {
            SCOPED_TRACE(testing::Message() << "dynamic " << dynamic
                                            << " isolate " << isolate);
            faas::PlatformConfig cfg;
            cfg.profile = dynamic ? faas::DataCenterProfile::usCentral1()
                                  : faas::DataCenterProfile::usEast1();
            cfg.seed = 31337;
            cfg.orchestrator.isolate_accounts = isolate;
            faas::Platform platform(cfg);
            faas::PlacementTrace trace;
            platform.orchestrator().attachTrace(&trace);
            testkit::ReferenceAudit audit(platform, trace);

            const auto acct = platform.createAccount(3);
            const faas::ServiceId svcs[2] = {
                platform.deployService(acct, faas::ExecEnv::Gen1),
                platform.deployService(acct, faas::ExecEnv::Gen1)};
            for (int launch = 0; launch < 4; ++launch) {
                for (int s = 0; s < 2; ++s) {
                    const std::string where = "launch " +
                                              std::to_string(launch) + "." +
                                              std::to_string(s);
                    audit.connect(svcs[s], 120 + 40 * (launch % 3), where);
                    platform.advance(sim::Duration::minutes(2));
                    for (int r = 0; r < 220; ++r)
                        audit.route(svcs[1 - s], sim::Duration::minutes(3),
                                    where);
                    platform.disconnectAll(svcs[s]);
                }
            }
            const auto ids = audit.connect(svcs[0], 50, "final connect");
            audit.restart(ids.front(), "restart");
            platform.orchestrator().attachTrace(nullptr);

            EXPECT_EQ(audit.mismatch(), "");
            EXPECT_GT(trace.countByReason(faas::PlacementReason::HotHelper),
                      0u);
            if (dynamic) {
                EXPECT_GT(
                    trace.countByReason(faas::PlacementReason::ColdSpill),
                    0u);
            }
        }
    }
}

/**
 * Spend must settle active time exactly once per Active-exit
 * transition: request completion draining in_flight to zero,
 * disconnect, idle reap, and restart all route through the same
 * settle point. Polls straddling each transition must agree with the
 * full-table reference to the cent (bit-exact, in fact).
 */
TEST(IndexedOracle, SpendSettlesOnEveryTransition)
{
    faas::Platform platform(eastConfig(1234));
    faas::Orchestrator &orch = platform.orchestrator();
    faas::PlacementTrace trace;
    orch.attachTrace(&trace);
    testkit::ReferenceAudit audit(platform, trace);
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);

    const auto ids = audit.connect(svc, 40, "connect");
    audit.spend(acct, "after connect");

    // Mid-flight: requests still running when polled.
    orch.setMaxConcurrency(svc, 2);
    for (int r = 0; r < 10; ++r)
        audit.route(svc, sim::Duration::fromSecondsF(1.0), "route");
    audit.spend(acct, "after routing");
    platform.advance(sim::Duration::fromSecondsF(0.5));
    audit.spend(acct, "in flight");
    platform.advance(sim::Duration::fromSecondsF(0.6));
    audit.spend(acct, "drained to idle");

    // Restart of an idle instance (terminate + replace).
    audit.restart(ids.front(), "restart");
    audit.spend(acct, "after restart");

    // Disconnect everything, then let the idle reap expire them.
    platform.disconnectAll(svc);
    audit.spend(acct, "after disconnect");
    platform.advance(sim::Duration::minutes(20));
    const double after_reap = audit.spend(acct, "after reap");
    platform.advance(sim::Duration::minutes(20));
    // Spend is frozen once everything is reaped, and not at zero.
    EXPECT_EQ(audit.spend(acct, "frozen"), after_reap);
    EXPECT_GT(after_reap, 0.0);
    EXPECT_EQ(audit.mismatch(), "");
    orch.attachTrace(nullptr);
}

} // namespace
} // namespace eaao
