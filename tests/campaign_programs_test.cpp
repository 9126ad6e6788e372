/**
 * @file
 * Campaign programs driven through campaign::runCampaign on committed
 * campaign files: hostile directive tokens must fail with one
 * `path:line:` SpecError before any trial runs, and a program that
 * quiets logging must hand the caller's log level back.
 */

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "support/bench_timer.hpp"
#include "support/logging.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

namespace {

using eaao::campaign::CampaignSpec;
using eaao::campaign::SpecError;

/** Committed campaign @p name with the line @p from replaced by @p to. */
std::string
campaignWith(const std::string &name, const std::string &from,
             const std::string &to, std::size_t &line_no)
{
    std::ifstream in(std::string(EAAO_CAMPAIGN_DIR) + "/" + name +
                     ".scenario");
    std::string text, line;
    line_no = 0;
    for (std::size_t n = 1; std::getline(in, line); ++n) {
        if (line == from) {
            line = to;
            line_no = n;
        }
        text += line + "\n";
    }
    EXPECT_NE(line_no, 0u) << name << " has no line '" << from << "'";
    return text;
}

/** runCampaign's SpecError message ("" when it ran to completion). */
std::string
runError(const CampaignSpec &spec)
{
    char prog[] = "run_campaign";
    char *argv[] = {prog, nullptr};
    ::testing::internal::CaptureStdout();
    std::string error;
    try {
        eaao::campaign::runCampaign(spec, 1, argv);
    } catch (const SpecError &e) {
        error = e.what();
    }
    ::testing::internal::GetCapturedStdout();
    return error;
}

TEST(ErrorHandling, HostileDirectiveTokensFailBeforeAnyTrial)
{
    struct Case
    {
        const char *campaign;
        const char *from;
        const char *to;
        const char *message;
    };
    // Each bad directive line is the last of its kind, so a program
    // that ran the good lines' trials first would simulate events. The
    // key lines and loadgen's tenants must be refused before any
    // platform is built: at the parent they crashed or wrapped.
    const Case cases[] = {
        {"sec52_account_scaling", "point 3 6 10", "point 1 x 1000",
         "'point' expects a number, got 'x'"},
        {"sec52_account_scaling", "point 3 6 10", "point 1 3 99999999999999",
         "'point' expects an integer in 0..4294967295, got "
         "'99999999999999'"},
        {"abl_placement_knobs", "chunk_sweep = 0 15 35 55 90 140",
         "chunk_sweep = 0 15 -5",
         "'chunk_sweep' expects an integer in 0..4294967295, got '-5'"},
        {"fig11_victim_coverage", "dc us-west1 0 0 1", "dc us-east1 0 x 2",
         "'dc' expects a number, got 'x'"},
        {"fig11_victim_coverage", "dc us-west1 0 0 1", "dc us-east1 0 7 2",
         "home shard 7 is out of range: us-east1 has shards 0..4"},
        {"fig08_exp3_accounts", "schedule = 0 0 1 1 2 2",
         "schedule = 0 0 1 1 2 3",
         "schedule names account 3 (0-based), but [tenants] declares 3"},
        {"fig12_cluster_size", "profiles = us-east1 us-central1 us-west1",
         "profiles = us-west1",
         "'profiles' expects 3 data-center profiles, got 1"},
        {"fig05_expiration_cdf", "profiles = us-east1 us-central1 us-west1",
         "profiles = us-west1",
         "'profiles' expects 3 data-center profiles, got 1"},
        {"fig05_expiration_cdf", "hours = 168", "hours = 3000000000",
         "'hours' expects an integer in 0..8760, got '3000000000'"},
        {"fig08_exp3_accounts", "interval_minutes = 45",
         "interval_minutes = 3000000000",
         "'interval_minutes' expects an integer in 0..525600, got "
         "'3000000000'"},
        {"loadgen_slo_sweep", "account 3 1000", "account 99999 1000",
         "home shard 99999 is out of range: us-east1 has shards 0..909"},
        {"loadgen_slo_sweep", "account 3 1000", "account 3 1e20",
         "'account' expects an integer in 0..4294967295, got '1e20'"},
    };
    for (const Case &c : cases) {
        std::size_t line_no = 0;
        const std::string path = std::string(c.campaign) + ".scenario";
        const CampaignSpec spec = CampaignSpec::parse(
            campaignWith(c.campaign, c.from, c.to, line_no), path);
        const std::uint64_t events = eaao::support::totalEventsProcessed();
        EXPECT_EQ(runError(spec), path + ":" + std::to_string(line_no) +
                                      ": " + c.message)
            << c.to;
        // No trial simulated anything before the line was refused.
        EXPECT_EQ(eaao::support::totalEventsProcessed(), events) << c.to;
    }
}

TEST(Logging, AccountScalingRestoresTheCallersLevel)
{
    std::size_t line_no = 0;
    std::string text = campaignWith("sec52_account_scaling",
                                    "point 1 3 1000", "point 1 1 10",
                                    line_no);
    // Keep only the tiny point.
    for (const char *big : {"point 1 6 1000\n", "point 2 6 1000\n",
                            "point 3 6 1000\n", "point 3 8 1000\n",
                            "point 3 6 10\n"})
        text.erase(text.find(big), std::string(big).size());
    const CampaignSpec spec = CampaignSpec::parse(text, "tiny");

    const eaao::LogLevel before = eaao::logLevel();
    const std::uint64_t events = eaao::support::totalEventsProcessed();
    eaao::setLogLevel(eaao::LogLevel::Info);
    const std::string error = runError(spec);
    const eaao::LogLevel after = eaao::logLevel();
    eaao::setLogLevel(before);
    EXPECT_EQ(error, "");
    EXPECT_EQ(after, eaao::LogLevel::Info);
    // The trial ran, and the event counter the test above relies on
    // saw it.
    EXPECT_GT(eaao::support::totalEventsProcessed(), events);
}

} // namespace
