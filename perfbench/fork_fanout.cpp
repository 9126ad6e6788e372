/**
 * @file
 * fork_fanout: the macro_campaign sharded routing campaign at 100k
 * hosts (16 pinned accounts, 2 priming rounds, 650-instance
 * concurrency-4 pools), primed once and captured at the priming
 * barrier. The image is parsed once; then kForks forks each restore it
 * into one reused platform and run the 160k-request RouteStorm plus
 * drain — the prime-once/fork-many pattern of
 * `macro_campaign --forked-storms`.
 *
 * Checks: every fork routes the full storm, and its ShardedTotals
 * equal the straight run's (perfbench/expected/fork_fanout.txt, the
 * stdout of `macro_campaign --sharded --requests 160000`) at the
 * committed seed, or the first fork's at any other seed.
 */

#include "workloads.hpp"

#include "faas/sharded.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"

namespace perfbench {

namespace {

using namespace eaao;

const char *const kExpected = "perfbench/expected/fork_fanout.txt";

constexpr std::uint32_t kHosts = 100'000;
constexpr std::uint64_t kStormRequests = 160'000; // all lanes, per fork
constexpr std::uint32_t kForks = 40;
constexpr std::uint32_t kPool = 650;
constexpr std::uint32_t kMaxConcurrency = 4;
constexpr std::uint32_t kPrimeRounds = 2;
constexpr std::uint32_t kPrimeLaunch = 300;
constexpr std::uint32_t kSpendPollEvery = 64;

/**
 * One lane's script, as macro_campaign builds it: prime a service hot,
 * pin a concurrency-4 pool with multi-hour requests, then one
 * RouteStorm op.
 */
void
laneScript(std::vector<faas::ShardOp> &ops, faas::ServiceId svc,
           std::uint64_t storm_requests)
{
    using Kind = faas::ShardOp::Kind;
    sim::SimTime t;
    std::uint32_t step = 0;
    const auto push = [&](Kind kind) -> faas::ShardOp & {
        faas::ShardOp op;
        op.kind = kind;
        op.at = t;
        op.step = step++;
        op.service = svc;
        ops.push_back(op);
        return ops.back();
    };
    for (std::uint32_t round = 0; round < kPrimeRounds; ++round) {
        push(Kind::Connect).a = kPrimeLaunch;
        t = t + sim::Duration::minutes(1);
        push(Kind::Disconnect);
        t = t + sim::Duration::minutes(4);
    }
    push(Kind::SetConcurrency).a = kMaxConcurrency;
    push(Kind::Connect).a = kPool;
    for (std::uint32_t p = 0; p < kPool; ++p) {
        faas::ShardOp &pin = push(Kind::Route);
        pin.sub = p;
        pin.dur = sim::Duration::hours(2);
    }
    faas::ShardOp &storm = push(Kind::RouteStorm);
    storm.n = storm_requests;
    storm.dur = sim::Duration::fromSecondsF(0.05);
    storm.dur_step = sim::Duration::fromSecondsF(0.01);
    storm.dur_mod = 7;
    storm.gap_every = 16;
    storm.gap = sim::Duration::fromSecondsF(0.02);
    storm.spend_every = kSpendPollEvery;
}

/** macro_campaign's printTotals lines. */
std::vector<std::string>
render(const faas::ShardedTotals &t)
{
    return {
        fmt("routed %llu requests across %u windows; created %llu instances",
            static_cast<unsigned long long>(t.routed), t.windows,
            static_cast<unsigned long long>(t.instances)),
        fmt("spend checksum %.2f USD; final spend %.2f USD", t.spend_checksum,
            t.final_spend_usd),
        fmt("events scheduled=%llu processed=%llu cancelled=%llu pending=%llu",
            static_cast<unsigned long long>(t.events_scheduled),
            static_cast<unsigned long long>(t.events_processed),
            static_cast<unsigned long long>(t.events_cancelled),
            static_cast<unsigned long long>(t.events_pending)),
    };
}

class ForkFanout final : public Workload
{
  public:
    explicit ForkFanout(const Options &opts) : opts_(opts)
    {
        cfg_.profile = faas::DataCenterProfile::usEast1();
        cfg_.profile.host_count = kHosts;
        cfg_.seed = opts.seed;
        cfg_.shards = kShards;
        cfg_.threads = opts.threads;
        if (opts.seed != kForkSeed)
            return;
        std::string text;
        if (!readText(opts.root + "/" + kExpected, text))
            fatal("cannot read " + opts.root + "/" + kExpected);
        const std::vector<std::string> lines = splitLines(text);
        if (lines.size() < 3)
            fatal(std::string("unrecognised reference ") + kExpected);
        reference_.assign(lines.end() - 3, lines.end());
        if (opts.perturb)
            reference_[0] += " (perturbed)";
    }

    void setup() override
    {
        {
            Span s("faas.construct");
            prime_ = std::make_unique<faas::ShardedPlatform>(cfg_);
        }
        std::vector<faas::ShardOp> ops;
        sim::SimTime horizon;
        {
            Span s("campaign.compile");
            const std::uint32_t lanes = prime_->laneCount();
            per_lane_ = kStormRequests / lanes;
            for (std::uint32_t lane = 0; lane < lanes; ++lane) {
                const faas::AccountId acct = prime_->createAccount(lane);
                const faas::ServiceId svc =
                    prime_->deployService(acct, faas::ExecEnv::Gen1);
                laneScript(ops, svc, per_lane_);
                horizon = ops.back().at +
                          sim::Duration::fromSecondsF(0.02) *
                              static_cast<std::int64_t>(per_lane_ / 16) +
                          sim::Duration::minutes(10);
            }
            // Every route of the script: the pins plus the storm.
            fork_routes_ = static_cast<std::uint64_t>(lanes) *
                           (kPool + per_lane_);
        }
        {
            Span s("sharded.begin_run");
            prime_->beginRun(std::move(ops), horizon);
        }
        Span s("faas.construct");
        fork_ = std::make_unique<faas::ShardedPlatform>(cfg_);
    }

    std::uint64_t measure() override
    {
        // Capture pre-fold at the last priming barrier, so a restored
        // run re-executes only the storm (macro_campaign's captureWindow).
        const std::int64_t prime_ns = sim::Duration::minutes(5).ns() *
                                      static_cast<std::int64_t>(kPrimeRounds);
        const std::int64_t w = prime_ns / cfg_.window.ns();
        const std::uint32_t capture_at =
            w > 1 ? static_cast<std::uint32_t>(w - 1) : 0;
        errors_.clear();
        forks_.clear();
        {
            Span s("sharded.prime");
            for (std::uint32_t window = 0; prime_->running(); ++window) {
                {
                    Span a("sharded.advance_window");
                    prime_->advanceWindow();
                }
                if (window >= capture_at)
                    break;
                Span c("sharded.complete_window");
                prime_->completeWindow();
            }
        }
        {
            Span s("snap.capture");
            image_ = snap::Snapshotter::capture(*prime_);
            captured_ = prime_->totals();
            s.setArg(image_.size());
        }
        std::string error;
        {
            Span s("snap.parse");
            if (!reader_.parse(image_, error, opts_.threads)) {
                errors_.push_back("snapshot parse: " + error);
                return captured_.events_processed;
            }
        }
        std::uint64_t events = captured_.events_processed;
        for (std::uint32_t i = 0; i < kForks; ++i) {
            {
                Span s("snap.restore");
                s.setArg(image_.size());
                if (!snap::Snapshotter::restore(reader_, *fork_, error)) {
                    errors_.push_back("restore: " + error);
                    break;
                }
            }
            Span s("sharded.storm");
            fork_->resumeRun();
            forks_.push_back(fork_->totals());
            s.setArg(forks_.back().routed - captured_.routed);
            events += forks_.back().events_processed -
                      captured_.events_processed;
        }
        return events;
    }

    void check(Checks &checks) override
    {
        for (const std::string &e : errors_)
            checks.expect(false, "fork_fanout: " + e);
        checks.expect(!forks_.empty(), "fork_fanout: no fork ran");
        for (std::size_t i = 0; i < forks_.size(); ++i) {
            const faas::ShardedTotals &t = forks_[i];
            if (reference_.empty())
                reference_ = render(t); // first fork at a non-committed seed
            const std::vector<std::string> got = render(t);
            const bool full = t.routed == fork_routes_;
            checks.expect(got == reference_ && full,
                          fmt("fork_fanout: fork %zu totals '%s' vs "
                              "reference '%s'%s",
                              i, got[0].c_str(), reference_[0].c_str(),
                              full ? "" : " (storm not fully routed)"));
        }
        if (forks_.empty())
            return;
        const faas::ShardedTotals &t = forks_.back();
        const double n = static_cast<double>(forks_.size());
        const auto perIteration = [&](std::uint64_t total,
                                      std::uint64_t at_capture) {
            return static_cast<double>(at_capture) +
                   n * static_cast<double>(total - at_capture);
        };
        counts_ = {
            {"sim.events_processed",
             perIteration(t.events_processed, captured_.events_processed)},
            {"sim.events_scheduled",
             perIteration(t.events_scheduled, captured_.events_scheduled)},
            {"sim.events_cancelled",
             perIteration(t.events_cancelled, captured_.events_cancelled)},
            {"faas.instances", static_cast<double>(t.instances)},
        };
    }

    void teardown() override
    {
        fork_.reset();
        prime_.reset();
        reader_ = snap::SnapshotReader();
        image_ = {};
    }

    Counts counts() const override { return counts_; }

  private:
    const Options opts_;
    faas::ShardedConfig cfg_;
    std::vector<std::string> reference_;

    std::unique_ptr<faas::ShardedPlatform> prime_;
    std::unique_ptr<faas::ShardedPlatform> fork_;
    std::uint64_t per_lane_ = 0;
    std::uint64_t fork_routes_ = 0;
    std::vector<std::uint8_t> image_;
    snap::SnapshotReader reader_;
    faas::ShardedTotals captured_;
    std::vector<faas::ShardedTotals> forks_;
    std::vector<std::string> errors_;
    Counts counts_;
};

} // namespace

std::unique_ptr<Workload>
makeForkFanout(const Options &opts)
{
    return std::make_unique<ForkFanout>(opts);
}

} // namespace perfbench
