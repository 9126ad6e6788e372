/**
 * @file
 * The `loadgen` program: open-loop arrival campaigns on the sharded
 * platform (docs/load-engine.md).
 *
 * The [workload] section declares arrival streams — one `stream`
 * directive per (service, family, rate, burstiness, service time,
 * span, churn, start) tuple — plus the warm-capacity and admission
 * knobs; [tenants] declares the account/service topology with the
 * same directive grammar testkit replay files use. The program
 * compiles everything into ShardOps, drives the window loop itself,
 * and samples the fleet-wide SLO counters (slo.admitted, slo.p99_s,
 * ...) at every barrier so [triggers] conditions can watch admission
 * backpressure develop. stdout is byte-identical across every
 * (--shards, --threads) grouping — CI diffs it like any other
 * determinism gate.
 */

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "faas/sharded.hpp"
#include "obs/metrics.hpp"
#include "support/bench_timer.hpp"
#include "support/options.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace eaao;

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
    spec.fail(line.line_no, "unknown arrival family '" + name +
                                "' (poisson, diurnal, pareto)");
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
    throw campaign::SpecError(spec.file().path +
                              ": unknown shed policy '" + name +
                              "' (queue, reject, shed_oldest)");
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

/** One parsed `account <shard> <quota>` directive. */
struct AccountDecl
{
    std::optional<std::uint32_t> shard; //!< empty: default hash
    std::uint32_t quota = 0;
};

/** One parsed `service <account> <env> <size>` directive. */
struct ServiceDecl
{
    std::uint32_t account = 0;
    std::uint32_t env = 0;  //!< 0 Gen1, 1 Gen2
    std::uint32_t size = 0; //!< 0..3, see sizeOf()
};

/** One parsed `stream` directive. */
struct StreamDecl
{
    std::uint32_t service = 0; //!< index into the [tenants] services
    std::string family;
    faas::ArrivalSpec spec;
    double start_s = 0.0;
};

std::string
fmtF(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(loadgen)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    // -- Platform shape. --------------------------------------------
    faas::ShardedConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    if (const std::uint32_t hosts = spec.u32("platform", "hosts", 0))
        cfg.profile.host_count = hosts;
    cfg.seed = spec.u64("platform", "seed");
    cfg.window =
        sim::Duration::seconds(spec.u32("workload", "window_s", 30));
    cfg.orchestrator.admission_depth = spec.u32("workload", "depth", 64);
    cfg.orchestrator.shed_policy =
        shedByName(spec, spec.str("workload", "shed", "queue"));
    cfg.shards = support::shardsFromArgs(ctx.argc, ctx.argv,
                                         spec.u32("workload", "shards", 1));
    cfg.threads = ctx.threads;

    // -- Tenant topology ([tenants], testkit directive grammar),
    // checked before the platform is built. --------------------------
    std::vector<AccountDecl> account_decls;
    for (const campaign::SpecLine *line :
         spec.directives("tenants", "account")) {
        AccountDecl a;
        if (spec.numAt(*line, 1) >= 0) // a negative shard: default hash
            a.shard = campaign::homeShard(spec, *line, 1, cfg.profile);
        a.quota = spec.u32At(*line, 2);
        account_decls.push_back(a);
    }
    std::vector<ServiceDecl> service_decls;
    for (const campaign::SpecLine *line :
         spec.directives("tenants", "service")) {
        ServiceDecl d;
        d.account = spec.u32At(*line, 1);
        if (d.account >= account_decls.size())
            spec.fail(line->line_no, "service references missing account");
        d.env = spec.u32At(*line, 2, 1);
        d.size = spec.u32At(*line, 3, 3);
        service_decls.push_back(d);
    }
    if (service_decls.empty())
        throw campaign::SpecError(spec.file().path +
                                  ": loadgen needs at least one "
                                  "[tenants] service");

    // -- Streams ([workload] stream directives). ---------------------
    std::vector<StreamDecl> streams;
    for (const campaign::SpecLine *line :
         spec.directives("workload", "stream")) {
        StreamDecl s;
        s.service = spec.u32At(*line, 1);
        if (s.service >= service_decls.size())
            spec.fail(line->line_no, "stream references missing service");
        if (line->tokens.size() < 3)
            spec.fail(line->line_no, "missing stream family token");
        s.family = line->tokens[2];
        s.spec.kind = familyByName(spec, *line, s.family);
        s.spec.rate_rps = spec.numAt(*line, 3);
        s.spec.burst_factor = spec.numAt(*line, 4);
        s.spec.mean_service_time =
            sim::Duration::fromSecondsF(spec.numAt(*line, 5) / 1e3);
        s.spec.span = sim::Duration::fromSecondsF(spec.numAt(*line, 6));
        const double churn_s = spec.numAt(*line, 7);
        s.spec.churn_every =
            churn_s > 0 ? sim::Duration::fromSecondsF(churn_s)
                        : sim::Duration();
        s.start_s = spec.numAt(*line, 8);
        if (s.spec.rate_rps <= 0 || s.spec.span.ns() <= 0)
            spec.fail(line->line_no, "stream needs rate > 0 and span > 0");
        streams.push_back(std::move(s));
    }
    if (streams.empty())
        throw campaign::SpecError(spec.file().path +
                                  ": loadgen needs at least one "
                                  "[workload] stream");

    faas::ShardedPlatform platform(cfg);
    std::vector<faas::AccountId> accounts;
    for (const AccountDecl &a : account_decls)
        accounts.push_back(platform.createAccount(a.shard, a.quota));
    std::vector<faas::ServiceId> services;
    for (const ServiceDecl &d : service_decls) {
        services.push_back(platform.deployService(
            accounts[d.account],
            d.env == 0 ? faas::ExecEnv::Gen1 : faas::ExecEnv::Gen2,
            sizeOf(d.size)));
    }

    // -- Compile to ShardOps. ----------------------------------------
    const std::uint32_t warm = spec.u32("workload", "warm_connections", 0);
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
    sim::SimTime last_end;
    for (const StreamDecl &s : streams) {
        faas::ShardOp op;
        op.kind = faas::ShardOp::Kind::OpenLoop;
        op.step = step++;
        op.at = sim::SimTime() + sim::Duration::fromSecondsF(s.start_s);
        op.service = services[s.service];
        op.a = static_cast<std::uint32_t>(s.spec.kind);
        op.rate = s.spec.rate_rps;
        op.burst = s.spec.burst_factor;
        op.dur = s.spec.mean_service_time;
        op.span = s.spec.span;
        op.gap = s.spec.churn_every;
        ops.push_back(op);
        last_end = std::max(last_end, op.at + op.span);
    }
    std::sort(ops.begin(), ops.end(),
              [](const faas::ShardOp &a, const faas::ShardOp &b) {
                  return a.at < b.at;
              });
    const sim::SimTime horizon =
        last_end +
        sim::Duration::seconds(spec.u32("workload", "drain_s", 120));

    // -- Window loop, sampling SLO counters at every barrier. --------
    support::BenchTimer timer("loadgen_" + spec.name(), cfg.threads,
                              cfg.seed);
    const double win_s = static_cast<double>(cfg.window.ns()) / 1e9;
    platform.beginRun(std::move(ops), horizon);
    while (platform.running()) {
        platform.advanceWindow();
        platform.completeWindow();
        if (ctx.triggers.empty())
            continue;
        const faas::ShardedTotals t = platform.totals();
        const faas::SloStats slo = platform.sloTotals();
        const double t_s = t.windows * win_s;
        const auto rec = [&](const char *name, double v) {
            ctx.triggers.record(name, t_s, v);
        };
        rec("arrivals.open_loop", static_cast<double>(t.open_loop));
        rec("orch.instances", static_cast<double>(t.instances));
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
        ctx.triggers.evaluateAt(t_s);
    }
    // The lane queues are still alive here, so the process-wide event
    // counter (flushed by queue destructors) has not seen them yet.
    support::maybeWriteBenchJson(
        ctx.argc, ctx.argv, timer.stop(platform.totals().events_processed));

    // -- Report. -----------------------------------------------------
    core::TextTable decl;
    decl.header({"svc", "family", "rate_rps", "burst", "service_ms",
                 "span_s", "churn_s", "start_s"});
    for (const StreamDecl &s : streams) {
        decl.row({std::to_string(s.service), s.family,
                  fmtF(s.spec.rate_rps, 1), fmtF(s.spec.burst_factor, 2),
                  fmtF(s.spec.mean_service_time.ns() / 1e6, 1),
                  fmtF(s.spec.span.ns() / 1e9, 1),
                  fmtF(s.spec.churn_every.ns() / 1e9, 1),
                  fmtF(s.start_s, 1)});
    }
    decl.print();

    const faas::ShardedTotals t = platform.totals();
    const faas::SloStats slo = platform.sloTotals();
    std::printf("\nadmission\n");
    core::TextTable adm;
    adm.header({"admitted", "served_warm", "queued", "dispatched",
                "rejected", "shed"});
    adm.row({std::to_string(slo.admitted), std::to_string(slo.served_warm),
             std::to_string(slo.queued), std::to_string(slo.dispatched),
             std::to_string(slo.rejected), std::to_string(slo.shed)});
    adm.print();

    std::printf("\nslo percentiles (s)\n");
    core::TextTable pct;
    pct.header({"series", "p50", "p90", "p95", "p99", "p99.9"});
    const auto row = [&](const char *name, const obs::Histogram &h) {
        pct.row({name, fmtF(obs::histogramQuantile(h, 0.50), 6),
                 fmtF(obs::histogramQuantile(h, 0.90), 6),
                 fmtF(obs::histogramQuantile(h, 0.95), 6),
                 fmtF(obs::histogramQuantile(h, 0.99), 6),
                 fmtF(obs::histogramQuantile(h, 0.999), 6)});
    };
    row("latency", slo.latency_s);
    row("cold_wait", slo.cold_wait_s);
    pct.print();

    std::printf("\nwindows %u  arrivals %llu  instances %llu  "
                "events_processed %llu\n",
                t.windows, static_cast<unsigned long long>(t.open_loop),
                static_cast<unsigned long long>(t.instances),
                static_cast<unsigned long long>(t.events_processed));
    std::printf("final_spend_usd %.2f\n", t.final_spend_usd);
}
