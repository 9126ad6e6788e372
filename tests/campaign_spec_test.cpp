/**
 * @file
 * The `eaao-scenario v2` campaign reader: section/line parsing, the
 * checked accessors of CampaignSpec, trigger-line parsing, and —
 * critically for the one-line exit-2 CLI contract — that every
 * malformed input throws a SpecError naming the exact file:line.
 */

#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"

#include <gtest/gtest.h>

#include <string>

using eaao::campaign::CampaignSpec;
using eaao::campaign::SpecError;
using eaao::campaign::SpecFile;

namespace {

/** Parse @p text expecting failure; returns the one-line message. */
std::string
parseError(const std::string &text)
{
    try {
        CampaignSpec::parse(text, "spec.scenario");
    } catch (const SpecError &e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.find('\n'), std::string::npos)
            << "error must be one line: " << msg;
        return msg;
    }
    ADD_FAILURE() << "expected SpecError for:\n" << text;
    return "";
}

const char *const kMinimal = "eaao-scenario v2\n"
                             "[campaign]\n"
                             "name = demo\n"
                             "program = replay\n";

} // namespace

TEST(SpecFileParse, HeaderErrors)
{
    EXPECT_EQ(parseError(""),
              "spec.scenario:1: empty file (no 'eaao-scenario v2' "
              "header)");
    EXPECT_NE(parseError("not a scenario\n")
                  .find("expected header 'eaao-scenario v2'"),
              std::string::npos);
    // v1 is no longer read; the message points at the upgrade table.
    EXPECT_EQ(parseError("# old replay\neaao-scenario v1\nseed 1\n"),
              "spec.scenario:2: eaao-scenario v1 is no longer read; "
              "upgrade the file to v2 by hand (docs/scenario-dsl.md §9)");
    // Future versions fail loudly with the supported maximum.
    EXPECT_NE(parseError("eaao-scenario v3\n")
                  .find("newer than this binary supports (max v2)"),
              std::string::npos);
}

TEST(SpecFileParse, SectionErrors)
{
    const std::string unknown = parseError("eaao-scenario v2\n"
                                           "[campagin]\n"
                                           "name = x\n");
    EXPECT_NE(unknown.find("spec.scenario:2: unknown section "
                           "[campagin]"),
              std::string::npos);

    EXPECT_NE(parseError(std::string(kMinimal) + "[campaign]\n")
                  .find(":5: duplicate section [campaign]"),
              std::string::npos);

    EXPECT_NE(parseError("eaao-scenario v2\n"
                         "name = x\n")
                  .find(":2: content before any [section] header"),
              std::string::npos);

    EXPECT_NE(parseError("eaao-scenario v2\n"
                         "[workload\n")
                  .find(":2: malformed section header"),
              std::string::npos);

    EXPECT_NE(parseError(std::string(kMinimal) +
                         "[outputs]\n"
                         "note = \"unclosed\n")
                  .find(":6: unclosed '\"'"),
              std::string::npos);
}

TEST(SpecFileParse, KeyValueVsDirective)
{
    // The LHS of the FIRST '=' decides: one identifier => key line,
    // anything else => positional directive. A title containing '='
    // still parses, keeping the full value.
    SpecFile file;
    std::string error;
    ASSERT_TRUE(SpecFile::parse("eaao-scenario v2\n"
                                "[campaign]\n"
                                "name = x\n"
                                "program = y\n"
                                "title = === Figure 4 ===\n"
                                "[tenants]\n"
                                "account 3 1000\n",
                                "t", file, error))
        << error;
    const auto *title = file.section("campaign")->find("title");
    ASSERT_NE(title, nullptr);
    EXPECT_EQ(title->value, "=== Figure 4 ===");
    const auto *acct = file.section("tenants")->lines.data();
    EXPECT_FALSE(acct->isKeyValue());
    EXPECT_EQ(acct->tokens[0], "account");
}

TEST(CampaignSpecAccess, MissingAndMalformedKeys)
{
    EXPECT_NE(parseError("eaao-scenario v2\n"
                         "[campaign]\n"
                         "program = replay\n")
                  .find("[campaign] is missing required key 'name'"),
              std::string::npos);

    EXPECT_NE(parseError("eaao-scenario v2\n"
                         "[workload]\n"
                         "runs = 3\n")
                  .find(":1: missing required section [campaign]"),
              std::string::npos);

    const CampaignSpec spec = CampaignSpec::parse(
        std::string(kMinimal) + "[workload]\n"
                                "runs = three\n"
                                "count = -4\n"
                                "flagged = maybe\n"
                                "sweep = 1 2 0.5\n",
        "spec.scenario");
    EXPECT_THROW(spec.num("workload", "runs"), SpecError);
    EXPECT_THROW(spec.u32("workload", "count"), SpecError);
    EXPECT_THROW(spec.flag("workload", "flagged", false), SpecError);
    EXPECT_THROW(spec.u64("platform", "seed"), SpecError);
    try {
        spec.num("workload", "runs");
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("spec.scenario:6: 'runs' expects a number, "
                            "got 'three'"),
                  std::string::npos)
            << e.what();
    }

    // The happy path for the same accessors.
    EXPECT_EQ(spec.numList("workload", "sweep"),
              (std::vector<double>{1.0, 2.0, 0.5}));
    EXPECT_EQ(spec.u32("workload", "absent", 7u), 7u);
    EXPECT_TRUE(spec.flag("outputs", "trigger_log", false) == false);
    EXPECT_EQ(spec.name(), "demo");
    EXPECT_EQ(spec.program(), "replay");
}

TEST(SpecFileParse, DirectiveTokensAreChecked)
{
    const CampaignSpec spec = CampaignSpec::parse(
        std::string(kMinimal) + "[workload]\n"
                                "point 1 x 1000\n"
                                "point 1 3 99999999999999\n"
                                "point 2.0 1e3 18446744073709551615\n"
                                "point -1 0.5 nan\n"
                                "sweep = 0 15 -5\n"
                                "big = 4294967296\n"
                                "seed = 18446744073709551615\n",
        "spec.scenario");
    const auto points = spec.directives("workload", "point");
    ASSERT_EQ(points.size(), 4u);
    const auto error = [](auto &&call) -> std::string {
        try {
            call();
        } catch (const SpecError &e) {
            return e.what();
        }
        return "no error";
    };

    // A number.
    EXPECT_EQ(spec.numAt(*points[0], 1), 1.0);
    EXPECT_EQ(error([&] { spec.numAt(*points[0], 2); }),
              "spec.scenario:6: 'point' expects a number, got 'x'");
    EXPECT_EQ(error([&] { spec.numAt(*points[0], 4); }),
              "spec.scenario:6: 'point' is missing value 4");

    // An integer, range-checked before any cast.
    EXPECT_EQ(spec.u32At(*points[1], 2), 3u);
    EXPECT_EQ(error([&] { spec.u32At(*points[1], 3); }),
              "spec.scenario:7: 'point' expects an integer in "
              "0..4294967295, got '99999999999999'");
    EXPECT_EQ(spec.u32At(*points[2], 1), 2u);    // integral spellings
    EXPECT_EQ(spec.u32At(*points[2], 2), 1000u); // are accepted
    EXPECT_EQ(spec.u64At(*points[2], 3), ~0ULL); // digits parse exactly
    EXPECT_EQ(error([&] { spec.u32At(*points[2], 3); }),
              "spec.scenario:8: 'point' expects an integer in "
              "0..4294967295, got '18446744073709551615'");
    EXPECT_EQ(error([&] { spec.u32At(*points[1], 2, 2); }),
              "spec.scenario:7: 'point' expects an integer in 0..2, got '3'");
    for (std::size_t i = 1; i <= 3; ++i) // -1, 0.5 and nan
        EXPECT_NE(error([&] { spec.u64At(*points[3], i); })
                      .find("spec.scenario:9: 'point' expects an integer"),
                  std::string::npos);
    EXPECT_EQ(error([&] { spec.u64At(*points[0], 2); }),
              "spec.scenario:6: 'point' expects a number, got 'x'");

    // An integer list for sweeps.
    EXPECT_EQ(error([&] { spec.u32List("workload", "sweep"); }),
              "spec.scenario:10: 'sweep' expects an integer in "
              "0..4294967295, got '-5'");

    // Keys take the same range check.
    EXPECT_EQ(error([&] { spec.u32("workload", "big"); }),
              "spec.scenario:11: 'big' expects an integer in "
              "0..4294967295, got '4294967296'");
    EXPECT_EQ(spec.u64("workload", "big"), 4294967296ULL);
    EXPECT_EQ(spec.u64("workload", "seed"), ~0ULL);
}

TEST(CampaignSpecAccess, QuotedTokensAndNotes)
{
    const CampaignSpec spec = CampaignSpec::parse(
        std::string(kMinimal) +
            "[attack]\n"
            "arm \"two words\" 60 30\n"
            "[outputs]\n"
            "note = plain text line\n"
            "note = \"   indented via quotes\"\n",
        "spec.scenario");
    const auto arms = spec.directives("attack", "arm");
    ASSERT_EQ(arms.size(), 1u);
    ASSERT_EQ(arms[0]->tokens.size(), 4u);
    EXPECT_EQ(arms[0]->tokens[1], "two words");

    const auto notes = spec.notes();
    ASSERT_EQ(notes.size(), 2u);
    EXPECT_EQ(notes[0], "plain text line");
    EXPECT_EQ(notes[1], "   indented via quotes");
}

TEST(CampaignSpecTriggers, ParseAndErrors)
{
    const CampaignSpec spec = CampaignSpec::parse(
        std::string(kMinimal) +
            "[triggers]\n"
            "trigger hot when orch.instances > 100 emit \"fleet hot\"\n",
        "spec.scenario");
    const auto triggers = spec.triggers();
    ASSERT_EQ(triggers.size(), 1u);
    EXPECT_EQ(triggers[0].name, "hot");
    EXPECT_EQ(triggers[0].message, "fleet hot");
    EXPECT_EQ(triggers[0].condition_text, "orch.instances > 100");

    EXPECT_NE(parseError(std::string(kMinimal) +
                         "[triggers]\n"
                         "trigger hot orch.instances > 100 emit \"m\"\n")
                  .find(":6: expected: trigger <name> when <condition> "
                        "emit \"<message>\""),
              std::string::npos);
    EXPECT_NE(parseError(std::string(kMinimal) +
                         "[triggers]\n"
                         "trigger hot when orch.instances > 100 x \"m\"\n")
                  .find("must end with: emit"),
              std::string::npos);
    // A malformed condition expression fails at load, naming the line.
    EXPECT_NE(parseError(std::string(kMinimal) +
                         "[triggers]\n"
                         "trigger hot when orch.instances >> 1 emit \"m\"\n")
                  .find("spec.scenario:6:"),
              std::string::npos);
}

TEST(CampaignSpecRender, CanonicalRoundTrip)
{
    const std::string text = std::string(kMinimal) +
                             "[platform]\n"
                             "seed = 42\n"
                             "[tenants]\n"
                             "account 0 1000\n";
    const CampaignSpec spec = CampaignSpec::parse(text, "t");
    const std::string rendered = spec.file().render();
    // Rendering the rendered text is a fixed point.
    const CampaignSpec again = CampaignSpec::parse(rendered, "t");
    EXPECT_EQ(again.file().render(), rendered);
    EXPECT_EQ(again.u64("platform", "seed"), 42u);
}
