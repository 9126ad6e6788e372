/**
 * @file
 * open_loop_slo: the committed loadgen_slo_sweep campaign (100k hosts,
 * 16 lanes, ~10.9M open-loop arrivals, 31 windows), compiled the way
 * the `loadgen` program compiles it and driven through the sharded
 * platform's stepping API, sampling totals()/sloTotals() into the
 * campaign's triggers at every barrier as the program does.
 *
 * Checks at the committed seed: the golden's admission row, percentile
 * rows, windows/arrivals/instances/events_processed, final spend and
 * trigger log. At any seed: every iteration's simulated totals equal
 * the first iteration's (traced against untraced when tracing), and
 * the workload probe regenerates exactly the arrivals the run admitted.
 */

#include "workloads.hpp"

#include "campaign/programs/common.hpp"
#include "campaign/spec.hpp"
#include "campaign/trigger.hpp"
#include "faas/sharded.hpp"
#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>

namespace perfbench {

namespace {

using namespace eaao;

const char *const kCampaign = "bench/campaigns/loadgen_slo_sweep.scenario";
const char *const kGolden = "bench/campaigns/expected/loadgen_slo_sweep.txt";

// -- Spec compilation (mirrors the loadgen program's grammar). ----------

double
numToken(const campaign::CampaignSpec &spec, const campaign::SpecLine &line,
         std::size_t index, const char *what)
{
    if (index >= line.tokens.size())
        spec.fail(line.line_no, std::string("missing ") + what + " token");
    const std::string &token = line.tokens[index];
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0')
        spec.fail(line.line_no, std::string("bad ") + what + " value '" +
                                    token + "'");
    return v;
}

faas::ArrivalKind
familyByName(const campaign::CampaignSpec &spec,
             const campaign::SpecLine &line, const std::string &name)
{
    if (name == "poisson")
        return faas::ArrivalKind::Poisson;
    if (name == "diurnal")
        return faas::ArrivalKind::Diurnal;
    if (name == "pareto")
        return faas::ArrivalKind::Pareto;
    spec.fail(line.line_no, "unknown arrival family '" + name + "'");
}

faas::ShedPolicy
shedByName(const campaign::CampaignSpec &spec, const std::string &name)
{
    if (name == "queue")
        return faas::ShedPolicy::Queue;
    if (name == "reject")
        return faas::ShedPolicy::Reject;
    if (name == "shed_oldest")
        return faas::ShedPolicy::ShedOldest;
    throw campaign::SpecError(spec.file().path + ": unknown shed policy '" +
                              name + "'");
}

faas::ContainerSize
sizeOf(std::uint32_t idx)
{
    switch (idx) {
    case 0:
        return faas::sizes::kPico;
    case 2:
        return faas::sizes::kMedium;
    case 3:
        return faas::sizes::kLarge;
    default:
        return faas::sizes::kSmall;
    }
}

/** Golden rows this workload checks, as whitespace-split tokens. */
struct GoldenRows
{
    std::vector<std::string> admission;
    std::vector<std::string> latency;
    std::vector<std::string> cold_wait;
    std::vector<std::string> windows;
    std::vector<std::string> spend;
    std::vector<std::string> trigger_log;
};

/** Tokens of the first line whose first token is @p head (+ @p skip). */
std::vector<std::string>
rowAfter(const std::vector<std::string> &lines, const std::string &head,
         std::size_t skip)
{
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::vector<std::string> toks = tokens(lines[i]);
        if (!toks.empty() && toks[0] == head && i + skip < lines.size())
            return tokens(lines[i + skip]);
    }
    return {};
}

GoldenRows
parseGolden(const std::string &text)
{
    const std::vector<std::string> lines = splitLines(text);
    GoldenRows g;
    g.admission = rowAfter(lines, "admitted", 2); // header, dashes, row
    g.latency = rowAfter(lines, "latency", 0);
    g.cold_wait = rowAfter(lines, "cold_wait", 0);
    g.windows = rowAfter(lines, "windows", 0);
    g.spend = rowAfter(lines, "final_spend_usd", 0);
    for (const std::string &line : lines) {
        if (line.rfind("  t=", 0) == 0)
            g.trigger_log.push_back(line);
    }
    return g;
}

std::string
joined(const std::vector<std::string> &v)
{
    std::string out;
    for (const std::string &s : v) {
        if (!out.empty())
            out += ' ';
        out += s;
    }
    return out;
}

class OpenLoopSlo final : public Workload
{
  public:
    explicit OpenLoopSlo(const Options &opts) : opts_(opts)
    {
        path_ = opts.root + "/" + kCampaign;
        if (!readText(path_, text_))
            fatal("cannot read " + path_);
        std::string golden;
        if (!readText(opts.root + "/" + kGolden, golden))
            fatal("cannot read " + opts.root + "/" + kGolden);
        golden_ = parseGolden(golden);
        if (golden_.admission.empty() || golden_.windows.size() != 8)
            fatal(std::string("unrecognised golden ") + kGolden);
        if (opts.perturb)
            golden_.admission[0] += "0";
    }

    void setup() override
    {
        {
            Span s("campaign.parse");
            spec_ = std::make_unique<campaign::CampaignSpec>(
                campaign::CampaignSpec::parse(text_, path_));
        }
        const campaign::CampaignSpec &spec = *spec_;
        faas::ShardedConfig cfg;
        cfg.profile = campaign::profileOf(spec, "platform", "profile");
        if (const std::uint32_t hosts = spec.u32("platform", "hosts", 0))
            cfg.profile.host_count = hosts;
        cfg.seed = opts_.seed;
        cfg.window =
            sim::Duration::seconds(spec.u32("workload", "window_s", 30));
        cfg.orchestrator.admission_depth = spec.u32("workload", "depth", 64);
        cfg.orchestrator.shed_policy =
            shedByName(spec, spec.str("workload", "shed", "queue"));
        cfg.shards = kShards;
        cfg.threads = opts_.threads;
        window_ = cfg.window;
        {
            Span s("faas.construct");
            platform_ = std::make_unique<faas::ShardedPlatform>(cfg);
        }
        std::vector<faas::ShardOp> ops;
        sim::SimTime horizon;
        {
            Span s("campaign.compile");
            ops = compile(spec, horizon);
            triggers_ = std::make_unique<campaign::TriggerEngine>();
            for (campaign::Trigger &trigger : spec.triggers())
                triggers_->add(std::move(trigger));
        }
        Span s("sharded.begin_run");
        platform_->beginRun(std::move(ops), horizon);
    }

    std::uint64_t measure() override
    {
        const double win_s = static_cast<double>(window_.ns()) / 1e9;
        while (platform_->running()) {
            {
                Span s("sharded.advance_window");
                platform_->advanceWindow();
            }
            {
                Span s("sharded.complete_window");
                platform_->completeWindow();
            }
            Span s("sharded.sample");
            last_ = platform_->totals();
            const faas::SloStats slo = platform_->sloTotals();
            const double t_s = last_.windows * win_s;
            const auto rec = [&](const char *name, double v) {
                triggers_->record(name, t_s, v);
            };
            rec("arrivals.open_loop", static_cast<double>(last_.open_loop));
            rec("orch.instances", static_cast<double>(last_.instances));
            rec("slo.admitted", static_cast<double>(slo.admitted));
            rec("slo.served_warm", static_cast<double>(slo.served_warm));
            rec("slo.queued", static_cast<double>(slo.queued));
            rec("slo.dispatched", static_cast<double>(slo.dispatched));
            rec("slo.rejected", static_cast<double>(slo.rejected));
            rec("slo.shed", static_cast<double>(slo.shed));
            rec("slo.p50_s", obs::histogramQuantile(slo.latency_s, 0.50));
            rec("slo.p95_s", obs::histogramQuantile(slo.latency_s, 0.95));
            rec("slo.p99_s", obs::histogramQuantile(slo.latency_s, 0.99));
            rec("slo.cold_p99_s",
                obs::histogramQuantile(slo.cold_wait_s, 0.99));
            triggers_->evaluateAt(t_s);
        }
        return last_.events_processed;
    }

    void check(Checks &checks) override
    {
        const faas::ShardedTotals t = platform_->totals();
        const faas::SloStats slo = platform_->sloTotals();
        GoldenRows got;
        got.admission = {std::to_string(slo.admitted),
                         std::to_string(slo.served_warm),
                         std::to_string(slo.queued),
                         std::to_string(slo.dispatched),
                         std::to_string(slo.rejected),
                         std::to_string(slo.shed)};
        const auto pct = [](const char *name, const obs::Histogram &h) {
            std::vector<std::string> row{name};
            for (const double q : {0.50, 0.90, 0.95, 0.99, 0.999})
                row.push_back(fmt("%.6f", obs::histogramQuantile(h, q)));
            return row;
        };
        got.latency = pct("latency", slo.latency_s);
        got.cold_wait = pct("cold_wait", slo.cold_wait_s);
        got.windows = {"windows",
                       std::to_string(t.windows),
                       "arrivals",
                       std::to_string(t.open_loop),
                       "instances",
                       std::to_string(t.instances),
                       "events_processed",
                       std::to_string(t.events_processed)};
        got.spend = {"final_spend_usd", fmt("%.2f", t.final_spend_usd)};
        for (const campaign::TriggerFiring &f : triggers_->firings()) {
            got.trigger_log.push_back(fmt("  t=%.0fs %s: %s", f.t_s,
                                          f.name.c_str(),
                                          f.message.c_str()));
        }

        if (opts_.seed == kOpenLoopSeed) {
            const auto same = [&](const std::vector<std::string> &a,
                                  const std::vector<std::string> &b,
                                  const char *what) {
                checks.expect(a == b, std::string("open_loop_slo ") + what +
                                          ": got '" + joined(a) +
                                          "', golden '" + joined(b) + "'");
            };
            same(got.admission, golden_.admission, "admission row");
            same(got.latency, golden_.latency, "latency percentiles");
            same(got.cold_wait, golden_.cold_wait, "cold_wait percentiles");
            for (std::size_t i = 0; i < 8; i += 2) {
                same({got.windows[i], got.windows[i + 1]},
                     {golden_.windows[i], golden_.windows[i + 1]},
                     got.windows[i].c_str());
            }
            same(got.spend, golden_.spend, "final spend");
            same(got.trigger_log, golden_.trigger_log, "trigger log");
        }

        const std::string digest =
            joined(got.admission) + "|" + joined(got.latency) + "|" +
            joined(got.cold_wait) + "|" + joined(got.windows) + "|" +
            joined(got.spend) + "|" + joined(got.trigger_log);
        if (first_digest_.empty())
            first_digest_ = digest;
        else
            checks.expect(digest == first_digest_,
                          "open_loop_slo: simulated totals differ from the "
                          "first iteration's");

        counts_ = {
            {"sim.events_processed", static_cast<double>(t.events_processed)},
            {"sim.events_scheduled", static_cast<double>(t.events_scheduled)},
            {"sim.events_cancelled", static_cast<double>(t.events_cancelled)},
            {"faas.admitted", static_cast<double>(slo.admitted)},
            {"faas.served_warm", static_cast<double>(slo.served_warm)},
            {"faas.queued", static_cast<double>(slo.queued)},
            {"faas.rejected", static_cast<double>(slo.rejected)},
            {"faas.shed", static_cast<double>(slo.shed)},
            {"faas.instances", static_cast<double>(t.instances)},
        };
    }

    /**
     * Regenerate every stream's arrivals window by window through
     * ArrivalCursor::generateUntil — the generation the lanes do inside
     * advanceWindow(), isolated — with the per-arrival service-time
     * draw. The count must equal the arrivals the run admitted.
     */
    void probe(Checks &checks) override
    {
        struct Stream
        {
            faas::ArrivalCursor cursor;
            sim::Rng service_rng;
            double mean_service_s = 0.0;
            sim::SimTime end;
            sim::SimTime gen_until;
        };
        Span span("workload.generate");
        std::vector<Stream> streams;
        for (const faas::ShardOp &op : open_loops_) {
            // The stream seed formula of ShardedPlatform's OpenLoop op.
            sim::Rng rng(sim::mix64(
                opts_.seed ^ 0x0a1e00000000ULL ^
                (static_cast<std::uint64_t>(op.step) << 20) ^ op.service));
            streams.push_back({faas::ArrivalCursor(faas::openLoopSpec(op),
                                                   rng.fork(0x0a1e0001),
                                                   op.at),
                               rng.fork(0x0a1e0002), op.dur.secondsF(),
                               op.at + op.span, op.at});
        }
        std::uint64_t arrivals = 0;
        double service_sum = 0.0;
        std::vector<sim::SimTime> instants;
        bool more = true;
        for (sim::SimTime wend = sim::SimTime() + window_; more;
             wend = wend + window_) {
            more = false;
            for (Stream &s : streams) {
                const sim::SimTime until = std::min(wend, s.end);
                if (until > s.gen_until) {
                    instants.clear();
                    s.cursor.generateUntil(until, instants);
                    for (std::size_t i = 0; i < instants.size(); ++i) {
                        service_sum += std::max(
                            1e-4, s.service_rng.exponential(s.mean_service_s));
                    }
                    arrivals += instants.size();
                    s.gen_until = until;
                }
                more = more || s.gen_until < s.end;
            }
        }
        span.setArg(arrivals);
        checks.expect(arrivals == last_.open_loop && service_sum > 0.0,
                      fmt("open_loop_slo: probe generated %llu arrivals, the "
                          "run admitted %llu",
                          static_cast<unsigned long long>(arrivals),
                          static_cast<unsigned long long>(last_.open_loop)));
    }

    void teardown() override
    {
        platform_.reset();
        triggers_.reset();
        spec_.reset();
    }

    Counts counts() const override { return counts_; }

  private:
    /** The loadgen program's [tenants]/[workload] compilation. */
    std::vector<faas::ShardOp> compile(const campaign::CampaignSpec &spec,
                                       sim::SimTime &horizon)
    {
        std::vector<faas::AccountId> accounts;
        for (const campaign::SpecLine *line :
             spec.directives("tenants", "account")) {
            const double shard = numToken(spec, *line, 1, "account shard");
            const double quota = numToken(spec, *line, 2, "account quota");
            accounts.push_back(platform_->createAccount(
                shard < 0 ? std::optional<std::uint32_t>{}
                          : std::optional<std::uint32_t>(
                                static_cast<std::uint32_t>(shard)),
                static_cast<std::uint32_t>(quota)));
        }
        std::vector<faas::ServiceId> services;
        for (const campaign::SpecLine *line :
             spec.directives("tenants", "service")) {
            const auto acct = static_cast<std::size_t>(
                numToken(spec, *line, 1, "service account"));
            if (acct >= accounts.size())
                spec.fail(line->line_no, "service references missing account");
            const auto env = static_cast<std::uint32_t>(
                numToken(spec, *line, 2, "service env"));
            const auto size = static_cast<std::uint32_t>(
                numToken(spec, *line, 3, "service size"));
            services.push_back(platform_->deployService(
                accounts[acct],
                env == 0 ? faas::ExecEnv::Gen1 : faas::ExecEnv::Gen2,
                sizeOf(size)));
        }

        const std::uint32_t warm =
            spec.u32("workload", "warm_connections", 0);
        const std::uint32_t conc = spec.u32("workload", "concurrency", 0);
        std::vector<faas::ShardOp> ops;
        std::uint32_t step = 0;
        for (const faas::ServiceId svc : services) {
            if (conc > 0) {
                faas::ShardOp op;
                op.kind = faas::ShardOp::Kind::SetConcurrency;
                op.step = step++;
                op.service = svc;
                op.a = conc;
                ops.push_back(op);
            }
            if (warm > 0) {
                faas::ShardOp op;
                op.kind = faas::ShardOp::Kind::Connect;
                op.step = step++;
                op.service = svc;
                op.a = warm;
                ops.push_back(op);
            }
        }
        open_loops_.clear();
        sim::SimTime last_end;
        for (const campaign::SpecLine *line :
             spec.directives("workload", "stream")) {
            const auto svc = static_cast<std::uint32_t>(
                numToken(spec, *line, 1, "stream service"));
            if (svc >= services.size() || line->tokens.size() < 3)
                spec.fail(line->line_no, "bad stream directive");
            faas::ShardOp op;
            op.kind = faas::ShardOp::Kind::OpenLoop;
            op.step = step++;
            op.at = sim::SimTime() +
                    sim::Duration::fromSecondsF(
                        numToken(spec, *line, 8, "stream start_s"));
            op.service = services[svc];
            op.a = static_cast<std::uint32_t>(
                familyByName(spec, *line, line->tokens[2]));
            op.rate = numToken(spec, *line, 3, "stream rate_rps");
            op.burst = numToken(spec, *line, 4, "stream burst");
            op.dur = sim::Duration::fromSecondsF(
                numToken(spec, *line, 5, "stream service_ms") / 1e3);
            op.span = sim::Duration::fromSecondsF(
                numToken(spec, *line, 6, "stream span_s"));
            const double churn_s = numToken(spec, *line, 7, "stream churn_s");
            op.gap = churn_s > 0 ? sim::Duration::fromSecondsF(churn_s)
                                 : sim::Duration();
            if (op.rate <= 0 || op.span.ns() <= 0)
                spec.fail(line->line_no, "stream needs rate > 0 and span > 0");
            ops.push_back(op);
            open_loops_.push_back(op);
            last_end = std::max(last_end, op.at + op.span);
        }
        std::sort(ops.begin(), ops.end(),
                  [](const faas::ShardOp &a, const faas::ShardOp &b) {
                      return a.at < b.at;
                  });
        horizon = last_end + sim::Duration::seconds(
                                 spec.u32("workload", "drain_s", 120));
        return ops;
    }

    const Options opts_;
    std::string path_;
    std::string text_;
    GoldenRows golden_;
    std::string first_digest_;

    std::unique_ptr<campaign::CampaignSpec> spec_;
    std::unique_ptr<faas::ShardedPlatform> platform_;
    std::unique_ptr<campaign::TriggerEngine> triggers_;
    std::vector<faas::ShardOp> open_loops_;
    sim::Duration window_;
    faas::ShardedTotals last_;
    Counts counts_;
};

} // namespace

std::unique_ptr<Workload>
makeOpenLoopSlo(const Options &opts)
{
    return std::make_unique<OpenLoopSlo>(opts);
}

} // namespace perfbench
