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
