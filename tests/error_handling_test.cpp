/**
 * @file
 * Error-handling tests: invariant violations panic (abort) with a
 * diagnostic, user-facing misconfiguration is caught early, and the
 * logging helpers behave.
 */

#include <gtest/gtest.h>

#include "channel/covert.hpp"
#include "core/fingerprint.hpp"
#include "faas/platform.hpp"
#include "sim/event_queue.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "support/logging.hpp"
#include "support/options.hpp"

namespace eaao {
namespace {

using DeathTest = ::testing::Test;

TEST(ErrorHandling, SchedulingIntoThePastPanics)
{
    sim::EventQueue eq;
    eq.advance(sim::Duration::seconds(10));
    EXPECT_DEATH(eq.scheduleAt(sim::SimTime() + sim::Duration::seconds(5),
                               [] {}),
                 "scheduling into the past");
}

TEST(ErrorHandling, RegressionRejectsDegenerateInput)
{
    EXPECT_DEATH(stats::linearRegression({1.0}, {2.0}),
                 "at least two points");
    EXPECT_DEATH(stats::linearRegression({1.0, 1.0}, {2.0, 3.0}),
                 "all x identical");
    EXPECT_DEATH(stats::linearRegression({1.0, 2.0}, {2.0}),
                 "size mismatch");
}

TEST(ErrorHandling, PercentileValidatesInput)
{
    EXPECT_DEATH(stats::percentile({}, 0.5), "empty sample");
    EXPECT_DEATH(stats::percentile({1.0}, 1.5), "out of range");
}

TEST(ErrorHandling, BadIdsPanic)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = 220;
    faas::Platform p(cfg);
    EXPECT_DEATH((void)p.instanceInfo(999), "bad instance");
    EXPECT_DEATH((void)p.orchestrator().account(7), "bad account");
    EXPECT_DEATH((void)p.orchestrator().service(7), "bad service");
    EXPECT_DEATH((void)p.fleet().host(100000), "bad host");
    EXPECT_DEATH((void)p.createAccount(99), "bad shard");
}

TEST(ErrorHandling, SandboxOfTerminatedInstancePanics)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = 220;
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = p.connect(svc, 5);
    p.disconnectAll(svc);
    p.advance(sim::Duration::minutes(20));
    EXPECT_DEATH((void)p.sandbox(ids[0]), "terminated instance");
}

TEST(ErrorHandling, Gen1SandboxCannotReadRefinedFrequency)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = 220;
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = p.connect(svc, 1);
    faas::SandboxView sbx = p.sandbox(ids[0]);
    EXPECT_DEATH((void)sbx.refinedTscFrequencyHz(),
                 "only readable inside a Gen 2 guest");
}

TEST(ErrorHandling, ChannelRejectsBadThreshold)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = 220;
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = p.connect(svc, 2);
    channel::RngChannel chan(p);
    EXPECT_DEATH(chan.run({ids[0], ids[1]}, 1), "at least 2");
}

TEST(ErrorHandling, ChannelRequiresLiveConnections)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = 220;
    faas::Platform p(cfg);
    const auto acct = p.createAccount();
    const auto svc = p.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = p.connect(svc, 2);
    p.disconnectAll(svc); // instances idle: no connection to test over
    channel::RngChannel chan(p);
    EXPECT_DEATH(chan.run({ids[0], ids[1]}, 2), "live connection");
}

TEST(ErrorHandling, QuantizeRejectsBadPrecision)
{
    core::Gen1Reading r;
    r.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    EXPECT_DEATH((void)core::quantizeGen1(r, 0.0),
                 "rounding precision");
    EXPECT_DEATH((void)core::quantizeGen1(r, -1.0),
                 "rounding precision");
}

TEST(ErrorHandling, ParseUintRejectsSignsJunkAndOverflow)
{
    using support::parseUint;
    EXPECT_EQ(parseUint("0", 0, 10), std::optional<std::uint64_t>{0});
    EXPECT_EQ(parseUint("10", 0, 10), std::optional<std::uint64_t>{10});
    EXPECT_EQ(parseUint("18446744073709551615", 0, ~0ULL),
              std::optional<std::uint64_t>{~0ULL});
    // strtoull would wrap "-5" to 2^64-5 and accept "+5" and " 5".
    for (const char *bad : {"-5", "+5", " 5", "5x", "", "abc", "0x10",
                            "18446744073709551616"})
        EXPECT_EQ(parseUint(bad, 0, ~0ULL), std::nullopt) << bad;
    EXPECT_EQ(parseUint("0", 1, 10), std::nullopt);
    EXPECT_EQ(parseUint("11", 1, 10), std::nullopt);
}

TEST(Logging, LevelsGateEmission)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    // No crash, nothing observable: just exercise the paths.
    warn("suppressed warning");
    inform("suppressed info");
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(before);
}

} // namespace
} // namespace eaao
