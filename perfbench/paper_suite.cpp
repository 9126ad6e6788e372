/**
 * @file
 * paper_suite: the 22 paper-figure campaign files that have goldens
 * (every committed file except loadgen_slo_sweep, which is
 * open_loop_slo, and demo_triggers, which has none), run back to back
 * in one process through campaign::runCampaign with `--threads N`.
 *
 * The goldens pin each file's own seeds, so --seed changes nothing
 * here, and the files always run in the same order: the first
 * iteration's peak RSS depends on the order. Checks: each file's stdout
 * byte-matches its
 * golden, and its simulated event count (the executed-event counter
 * delta, read after the campaign's queues are destroyed) equals the
 * first iteration's.
 */

#include "workloads.hpp"

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "support/bench_timer.hpp"

#include <array>

#include <malloc.h>

namespace perfbench {

const char *const kPaperFiles[22] = {
    "abl_channel_robustness",    "abl_detection_evasion",
    "abl_pboot_tradeoff",        "abl_placement_knobs",
    "ext_victim_inflation",      "fig04_fingerprint_accuracy",
    "fig05_expiration_cdf",      "fig06_idle_termination",
    "fig07_exp2_same_service",   "fig08_exp3_accounts",
    "fig09_exp4_short_interval", "fig10_exp4_episodes",
    "fig11_victim_coverage",     "fig12_cluster_size",
    "sec42_freq_methods",        "sec45_gen2_accuracy",
    "sec52_account_scaling",     "sec52_gen2_coverage",
    "sec52_naive_strategy",      "sec52_repeat_attack",
    "sec6_mitigations",          "tab_verification_cost",
};

bool
isHarnessFile(const std::string &name)
{
    return name == "fig04_fingerprint_accuracy" ||
           name == "fig11_victim_coverage" ||
           name == "sec52_gen2_coverage" || name == "tab_verification_cost";
}

namespace {

using namespace eaao;

constexpr std::size_t kFiles = std::size(kPaperFiles);

/** Parse passes per set-up; setup_s is their median. */
constexpr int kParsePasses = 50;

class PaperSuite final : public Workload
{
  public:
    explicit PaperSuite(const Options &opts)
        : threads_(std::to_string(opts.threads))
    {
        for (std::size_t i = 0; i < kFiles; ++i) {
            const std::string name = kPaperFiles[i];
            paths_[i] = opts.root + "/bench/campaigns/" + name + ".scenario";
            const std::string golden =
                opts.root + "/bench/campaigns/expected/" + name + ".txt";
            if (!readText(paths_[i], texts_[i]))
                fatal("cannot read " + paths_[i]);
            if (!readText(golden, goldens_[i]))
                fatal("cannot read " + golden);
        }
        if (opts.perturb)
            goldens_[0].insert(0, "perturbed ");
        argv_ = {const_cast<char *>("perfbench"),
                 const_cast<char *>("--threads"), threads_.data(), nullptr};
    }

    void setup() override
    {
        std::vector<double> passes;
        for (int pass = 0; pass < kParsePasses; ++pass) {
            const double t0 = nowS();
            Span s("campaign.parse");
            for (std::size_t i = 0; i < kFiles; ++i) {
                specs_[i] = std::make_unique<campaign::CampaignSpec>(
                    campaign::CampaignSpec::parse(texts_[i], paths_[i]));
            }
            s.end();
            passes.push_back(nowS() - t0);
        }
        setup_s_ = median(passes);
    }

    double setupSeconds(double) const override { return setup_s_; }

    std::uint64_t measure() override
    {
        std::uint64_t events = 0;
        StdoutCapture capture;
        for (std::size_t i = 0; i < kFiles; ++i) {
            const std::uint64_t before = support::totalEventsProcessed();
            errors_[i].clear();
            {
                Span s("campaign.run", kPaperFiles[i]);
                try {
                    campaign::runCampaign(*specs_[i], 3, argv_.data());
                } catch (const std::exception &e) {
                    errors_[i] = e.what();
                }
            }
            // The program has returned, so its queues are destroyed and
            // their executed events are in the process-wide counter.
            events_[i] = support::totalEventsProcessed() - before;
            events += events_[i];
            outputs_[i] = capture.take();
            // Each file is its own run_campaign process for a user. Hand
            // the heap the campaign freed back, so the peak RSS of the
            // suite is that of its largest file, not of how freed memory
            // happened to fragment across the harness threads' arenas.
            malloc_trim(0);
        }
        return events;
    }

    void check(Checks &checks) override
    {
        for (std::size_t i = 0; i < kFiles; ++i) {
            if (first_events_[i] == kUnset)
                first_events_[i] = events_[i];
            const bool same_output = outputs_[i] == goldens_[i];
            checks.expect(
                errors_[i].empty() && same_output &&
                    events_[i] == first_events_[i],
                fmt("paper_suite: %s: %s", kPaperFiles[i],
                    !errors_[i].empty() ? errors_[i].c_str()
                    : !same_output      ? "stdout differs from its golden"
                                        : "event count differs from the "
                                          "first iteration's"));
        }
        double total = 0.0;
        for (const std::uint64_t e : events_)
            total += static_cast<double>(e);
        counts_ = {{"sim.events_processed", total}};
    }

    void teardown() override
    {
        for (auto &spec : specs_)
            spec.reset();
    }

    Counts counts() const override { return counts_; }

  private:
    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

    std::string threads_;
    std::vector<char *> argv_;
    std::array<std::string, kFiles> paths_;
    std::array<std::string, kFiles> texts_;
    std::array<std::string, kFiles> goldens_;

    std::array<std::unique_ptr<campaign::CampaignSpec>, kFiles> specs_;
    double setup_s_ = 0.0;
    std::array<std::string, kFiles> outputs_;
    std::array<std::string, kFiles> errors_;
    std::array<std::uint64_t, kFiles> events_{};
    std::array<std::uint64_t, kFiles> first_events_ = [] {
        std::array<std::uint64_t, kFiles> a{};
        a.fill(kUnset);
        return a;
    }();
    Counts counts_;
};

} // namespace

std::unique_ptr<Workload>
makePaperSuite(const Options &opts)
{
    return std::make_unique<PaperSuite>(opts);
}

} // namespace perfbench
