/**
 * @file
 * Regression corpus replay: every committed replay file under
 * tests/corpus/ must parse, carry no fault injection, hold every
 * invariant oracle, and produce byte-identical logs across thread
 * counts. New reproducers earned by the fuzzer are added to the corpus
 * and automatically enforced here forever after.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "testkit/invariants.hpp"
#include "testkit/runner.hpp"
#include "testkit/scenario.hpp"
#include "testkit/shrink.hpp"

#ifndef EAAO_CORPUS_DIR
#error "EAAO_CORPUS_DIR must point at tests/corpus"
#endif

namespace eaao::testkit {
namespace {

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(EAAO_CORPUS_DIR)) {
        if (entry.path().extension() == ".scenario")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

Scenario
load(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    Scenario sc;
    std::string error;
    EXPECT_TRUE(Scenario::parse(buf.str(), sc, error))
        << path << ": " << error;
    return sc;
}

TEST(Corpus, HasCommittedScenarios)
{
    EXPECT_GE(corpusFiles().size(), 5u);
}

TEST(Corpus, EveryFileReplaysGreen)
{
    const std::vector<std::filesystem::path> files = corpusFiles();
    ASSERT_FALSE(files.empty());
    for (const std::filesystem::path &path : files) {
        SCOPED_TRACE(path.filename().string());
        const Scenario sc = load(path);
        // Committed corpus files describe main-branch behaviour; a
        // reproducer is only committed after its bug is fixed and its
        // fault knob reset.
        EXPECT_EQ(sc.fault, 0u);

        InvariantOptions opts;
        opts.threads = 8; // --threads 1 vs 8 byte-equality per issue spec
        opts.thread_trials = 2;
        const std::vector<Violation> violations = checkInvariants(sc, opts);
        for (const Violation &v : violations)
            ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
    }
}

TEST(Corpus, ShrinkIsFixedPointOnMutationMinima)
{
    // Every committed mutation minimum is already minimal: re-planting
    // its fault and re-running the shrinker must change nothing — the
    // serialized bytes are a fixed point. A failure here means either
    // the shrinker got smarter (re-minimize the corpus file) or a
    // shrink pass regressed into accepting non-failing candidates.
    const struct
    {
        const char *file;
        std::uint32_t fault;
    } minima[] = {
        {"mutation-routing-min.scenario", 1},
        {"mutation-prefix-min.scenario", 2},
        {"mutation-window-min.scenario", 4},
        {"mutation-snapshot-min.scenario", 5},
        {"mutation-timetravel-min.scenario", 6},
    };
    for (const auto &m : minima) {
        SCOPED_TRACE(m.file);
        Scenario sc =
            load(std::filesystem::path(EAAO_CORPUS_DIR) / m.file);
        sc.fault = m.fault;

        InvariantOptions opts;
        opts.threads = 2;
        opts.thread_trials = 2;
        opts.shard_arm = 2;
        const FailurePredicate still_fails =
            [&opts](const Scenario &candidate) {
                return !checkInvariants(candidate, opts).empty();
            };
        ASSERT_TRUE(still_fails(sc)) << "fault " << m.fault
                                     << " no longer bites its minimum";
        const ShrinkResult shrunk = shrink(sc, still_fails);
        EXPECT_EQ(shrunk.scenario.serialize(), sc.serialize());
    }
}

TEST(Corpus, V1FilesUpgradeToV2Losslessly)
{
    // The committed corpus stays in the legacy flat v1 format on
    // purpose: it pins backward compatibility. Parsing a v1 file and
    // re-serializing must produce an equivalent v2 campaign — same
    // model, same replay behaviour.
    const std::vector<std::filesystem::path> files = corpusFiles();
    ASSERT_FALSE(files.empty());
    for (const std::filesystem::path &path : files) {
        SCOPED_TRACE(path.filename().string());
        const Scenario v1 = load(path);
        const std::string v2_text = v1.serialize();
        EXPECT_NE(v2_text.find("eaao-scenario v2"), std::string::npos);

        Scenario v2;
        std::string error;
        ASSERT_TRUE(Scenario::parse(v2_text, v2, error)) << error;
        EXPECT_EQ(v2.serialize(), v2_text);
        EXPECT_EQ(v2.seed, v1.seed);
        EXPECT_EQ(v2.host_count, v1.host_count);
        EXPECT_EQ(v2.steps.size(), v1.steps.size());
        EXPECT_EQ(runScenario(v2).render(), runScenario(v1).render());
    }
}

} // namespace
} // namespace eaao::testkit
