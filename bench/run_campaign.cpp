/**
 * @file
 * The one generic campaign driver: executes any
 * `eaao-scenario v2` campaign file (bench/campaigns/NAME.scenario or a
 * fuzz replay), replacing the per-figure bench binaries.
 *
 *   run_campaign FILE [--threads N] [--bench-json F] [--trace-json F]
 *                     [--metrics-json F]
 *   run_campaign --list [DIR]       # summarize a campaign directory
 *   run_campaign --describe FILE    # pretty-print resolved sections
 *
 * A malformed file prints one line-precise diagnostic to stderr and
 * exits 2 (docs/scenario-dsl.md documents the message catalog), and so
 * does a command line it cannot honour, before anything runs;
 * stdout of a ported campaign is byte-identical to its legacy binary
 * (CI's campaign-parity job diffs against bench/campaigns/expected/).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"
#include "core/report.hpp"
#include "support/options.hpp"

namespace {

using namespace eaao;

int
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: run_campaign FILE [--threads N] [--shards N]\n"
        "                         [--bench-json F] [--trace-json F]\n"
        "                         [--metrics-json F]\n"
        "       run_campaign --list [DIR]\n"
        "       run_campaign --describe FILE\n");
    return to == stdout ? 0 : 2;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw campaign::SpecError(path + ":1: cannot open file");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

campaign::CampaignSpec
loadCampaign(const std::string &path)
{
    return campaign::CampaignSpec::parse(readFile(path), path);
}

int
listCampaigns(const std::string &dir)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir)) {
        std::fprintf(stderr, "run_campaign: not a directory: %s\n",
                     dir.c_str());
        return 2;
    }
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".scenario")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());

    core::TextTable table;
    table.header({"campaign", "program", "title"});
    for (const std::string &path : paths) {
        try {
            const campaign::CampaignSpec spec = loadCampaign(path);
            table.row({spec.name(), spec.program(), spec.title()});
        } catch (const campaign::SpecError &e) {
            table.row({fs::path(path).stem().string(), "(error)",
                       e.what()});
        }
    }
    table.print();
    std::printf("\n%zu campaign file%s in %s\n", paths.size(),
                paths.size() == 1 ? "" : "s", dir.c_str());
    return 0;
}

int
describeCampaign(const std::string &path)
{
    const campaign::CampaignSpec spec = loadCampaign(path);
    std::printf("campaign %s  (program: %s)\n", spec.name().c_str(),
                spec.program().c_str());
    if (!spec.title().empty())
        std::printf("title    %s\n", spec.title().c_str());
    std::printf("\n%s", spec.file().render().c_str());

    const std::vector<campaign::Trigger> triggers = spec.triggers();
    if (!triggers.empty()) {
        std::printf("\nresolved triggers\n");
        std::vector<std::string> counters;
        for (const campaign::Trigger &t : triggers) {
            std::printf("  %s: %s -> \"%s\"\n", t.name.c_str(),
                        campaign::renderExpr(*t.condition).c_str(),
                        t.message.c_str());
            for (std::string &name : campaign::counterNames(*t.condition))
                counters.push_back(std::move(name));
        }
        std::sort(counters.begin(), counters.end());
        counters.erase(std::unique(counters.begin(), counters.end()),
                       counters.end());
        // The sampling contract: the campaign's program must record
        // each of these for the conditions to ever fire.
        std::printf("\ntrigger counters\n");
        for (const std::string &name : counters)
            std::printf("  %s\n", name.c_str());
    }
    return 0;
}

/** Reject the command line with one stderr line and exit code 2. */
int
badArgs(const std::string &why)
{
    std::fprintf(stderr, "run_campaign: %s\n", why.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string file;
    bool list = false;
    bool describe = false;
    std::string list_dir = "bench/campaigns";

    // Every flag and value is checked here, before a campaign prints
    // its title: the programs read the values only later, through the
    // support:: helpers, and some programs never read them at all.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--list") {
            list = true;
            continue;
        }
        if (arg == "--describe") {
            describe = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            if (!file.empty())
                return badArgs("expected one file, got '" + file +
                               "' and '" + arg + "'");
            file = arg;
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const bool count = flag == "--threads" || flag == "--shards";
        if (!count && flag != "--bench-json" && flag != "--trace-json" &&
            flag != "--metrics-json")
            return badArgs("unknown flag " + arg);
        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < argc)
            value = argv[++i];
        if (value.empty())
            return badArgs(flag + " requires a value");
        if (count &&
            !support::parseUint(value.c_str(), 1, support::kMaxGroups)) {
            return badArgs(flag + " needs an integer in 1.." +
                           std::to_string(support::kMaxGroups) + ", got '" +
                           value + "'");
        }
    }

    try {
        if (list)
            return listCampaigns(file.empty() ? list_dir : file);
        if (file.empty())
            return usage(stderr);
        if (describe)
            return describeCampaign(file);
        return campaign::runCampaign(loadCampaign(file), argc, argv);
    } catch (const campaign::SpecError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
