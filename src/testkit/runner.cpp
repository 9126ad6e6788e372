/**
 * @file
 * Scenario execution against a live platform.
 */

#include "testkit/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "faas/platform.hpp"
#include "faas/sharded.hpp"
#include "faas/workload.hpp"
#include "obs/metrics.hpp"
#include "snap/snapshotter.hpp"
#include "testkit/reference.hpp"

namespace eaao::testkit {

namespace {

faas::ContainerSize
sizeOf(std::uint8_t idx)
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

faas::DataCenterProfile
profileOf(std::uint8_t idx)
{
    switch (idx) {
    case 1:
        return faas::DataCenterProfile::usCentral1();
    case 2:
        return faas::DataCenterProfile::usWest1();
    default:
        return faas::DataCenterProfile::usEast1();
    }
}

std::string
fmtUsd(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Decode an OpenLoop step's raw payloads into an ArrivalSpec. Every
 * (a, b) pair maps to a valid spec, so shrinker payload halving stays
 * total: family and service-time come from `a`, span/burst/churn from
 * `b`. Spans are kept short (30..180 s) so fuzz scenarios stay fast.
 */
faas::ArrivalSpec
openLoopSpecOf(const ScenarioStep &st)
{
    faas::ArrivalSpec spec;
    spec.kind = static_cast<faas::ArrivalKind>(st.a % 3);
    spec.rate_rps = 20.0 + st.a % 181;
    spec.mean_service_time = sim::Duration::millis(50 + st.a % 250);
    spec.span = sim::Duration::seconds(30 + st.b % 151);
    spec.burst_factor = 1.5 + st.b % 4;
    spec.churn_every = st.b % 7 == 0 ? sim::Duration::seconds(15)
                                     : sim::Duration();
    return spec;
}

/**
 * Virtual time of a time-travel scenario's fork point: just past the
 * captured window barrier (the sharded platform's 30 s exchange
 * window). Suffix steps are compiled strictly after it — an op landing
 * exactly on the barrier would fold into the captured window on the
 * straight path but run post-restore on the forked path, and the two
 * arms must stay byte-identical.
 */
sim::SimTime
forkWallOf(const Scenario &sc)
{
    return sim::SimTime() + faas::ShardedConfig{}.window * (sc.tt_barrier + 1) +
           sim::Duration::millis(1);
}

/** First suffix step of a time-travel scenario (= step count otherwise). */
std::size_t
prefixSplitOf(const Scenario &sc)
{
    return sc.has_timetravel
               ? std::min<std::size_t>(sc.tt_prefix_steps, sc.steps.size())
               : sc.steps.size();
}

/**
 * Create the scenario's accounts and services on @p platform (serial
 * or sharded — identical API and identical dense-id assignment).
 */
template <typename PlatformT>
void
setupTenants(PlatformT &platform, const Scenario &scenario,
             std::vector<faas::AccountId> &accounts,
             std::vector<faas::ServiceId> &services)
{
    accounts.reserve(scenario.accounts.size());
    for (const ScenarioAccount &a : scenario.accounts) {
        std::optional<std::uint32_t> shard;
        if (a.shard >= 0) // pins survive fleet shrinking via modulo
            shard = static_cast<std::uint32_t>(a.shard) %
                    platform.fleet().shardCount();
        accounts.push_back(platform.createAccount(shard, a.quota));
    }
    services.reserve(scenario.services.size());
    for (const ScenarioService &s : scenario.services) {
        services.push_back(platform.deployService(
            accounts[s.account % accounts.size()], // parse() validates; the
                                                   // shrinker may not
            s.env == 1 ? faas::ExecEnv::Gen2 : faas::ExecEnv::Gen1,
            sizeOf(s.size)));
    }
}

/** Conditional SLO log section (empty when nothing was admitted). */
std::string
renderSlo(const faas::SloStats &slo)
{
    if (slo.admitted == 0)
        return {};
    std::ostringstream out;
    out << "slo admitted=" << slo.admitted
        << " served_warm=" << slo.served_warm << " queued=" << slo.queued
        << " dispatched=" << slo.dispatched << " rejected=" << slo.rejected
        << " shed=" << slo.shed << "\n";
    out << "slo_latency_s p50=" << fmtUsd(obs::histogramQuantile(
                                        slo.latency_s, 0.50))
        << " p99=" << fmtUsd(obs::histogramQuantile(slo.latency_s, 0.99))
        << "\n";
    return out.str();
}

} // namespace

std::string
ScenarioLog::render() const
{
    std::ostringstream out;
    out << "trace " << trace.size() << "\n";
    for (const faas::PlacementEvent &e : trace) {
        out << "  t=" << e.when.ns() << " inst=" << e.instance
            << " svc=" << e.service << " acct=" << e.account
            << " host=" << e.host << " why=" << faas::toString(e.reason)
            << "\n";
    }
    out << "routed " << routed.size() << "\n";
    for (const std::string &line : routed)
        out << "  " << line << "\n";
    out << "restarted " << restarted.size() << "\n";
    for (const std::string &line : restarted)
        out << "  " << line << "\n";
    out << "spend " << spend.size() << "\n";
    for (const std::string &line : spend)
        out << "  " << line << "\n";
    out << "final_spend";
    for (const double v : final_spend_usd)
        out << " " << fmtUsd(v);
    out << "\n";
    out << slo; // empty unless an OpenLoop step admitted traffic
    out << "instances " << instance_count << "\n";
    out << "events scheduled=" << events_scheduled
        << " processed=" << events_processed
        << " cancelled=" << events_cancelled << " pending=" << events_pending
        << "\n";
    return out.str();
}

ScenarioLog
runScenario(const Scenario &scenario, const RunOptions &opts)
{
    faas::PlatformConfig cfg;
    cfg.profile = profileOf(scenario.profile);
    if (scenario.host_count != 0)
        cfg.profile.host_count = scenario.host_count;
    cfg.orchestrator.isolate_accounts = scenario.isolate_accounts;
    if (scenario.hot_burst_min != 0)
        cfg.orchestrator.hot_burst_min = scenario.hot_burst_min;
    cfg.orchestrator.fault_injection = scenario.fault;
    cfg.seed = opts.seed_override != 0 ? opts.seed_override : scenario.seed;
    cfg.obs = opts.obs;

    faas::Platform platform(cfg);
    faas::PlacementTrace trace;
    platform.orchestrator().attachTrace(&trace);
    ReferenceAudit audit(platform, trace);

    std::vector<faas::AccountId> accounts;
    std::vector<faas::ServiceId> services;
    setupTenants(platform, scenario, accounts, services);

    ScenarioLog log;
    // Instances ever created through any path, in creation order; the
    // Restart step indexes into this so a raw payload always resolves.
    std::vector<faas::InstanceId> created;
    const auto noteCreated = [&](std::size_t trace_from) {
        for (std::size_t i = trace_from; i < trace.events().size(); ++i) {
            if (trace.events()[i].reason != faas::PlacementReason::Reuse)
                created.push_back(trace.events()[i].instance);
        }
    };

    // Time-travel scenarios advance to the fork wall between prefix
    // and suffix, mirroring the sharded compile's cursor jump, so the
    // serial oracles see one deterministic composed run.
    const auto barrierAdvance = [&](std::uint32_t step_no) {
        if (!scenario.has_timetravel ||
            step_no != scenario.tt_prefix_steps) {
            return;
        }
        const sim::SimTime wall = forkWallOf(scenario);
        if (platform.clock().now() < wall)
            platform.advance(wall - platform.clock().now());
    };

    std::uint32_t step_no = 0;
    for (const ScenarioStep &st : scenario.steps) {
        barrierAdvance(step_no);
        const std::size_t trace_mark = trace.events().size();
        const faas::ServiceId svc =
            services[st.target % services.size()];
        const std::string where = "step " + std::to_string(step_no);
        switch (st.kind) {
        case ScenarioStep::Kind::Connect:
            audit.connect(svc, st.a == 0 ? 1 : st.a, where);
            break;
        case ScenarioStep::Kind::Disconnect:
            platform.disconnectAll(svc);
            break;
        case ScenarioStep::Kind::Route: {
            const faas::InstanceId inst = audit.route(
                svc, sim::Duration::millis(st.a == 0 ? 1 : st.a), where);
            std::ostringstream line;
            line << "step=" << step_no << " inst=" << inst
                 << " host=" << platform.oracleHostOf(inst);
            log.routed.push_back(line.str());
            break;
        }
        case ScenarioStep::Kind::Burst: {
            const std::uint32_t n = st.a == 0 ? 1 : st.a;
            const sim::Duration svc_time =
                sim::Duration::millis(st.b == 0 ? 1 : st.b);
            for (std::uint32_t i = 0; i < n; ++i) {
                const faas::InstanceId inst = audit.route(
                    svc, svc_time, where + "." + std::to_string(i));
                std::ostringstream line;
                line << "step=" << step_no << "." << i << " inst=" << inst
                     << " host=" << platform.oracleHostOf(inst);
                log.routed.push_back(line.str());
                // Small inter-arrival gap: keeps the burst inside one
                // demand window while letting completions interleave.
                platform.advance(sim::Duration::millis(2));
            }
            break;
        }
        case ScenarioStep::Kind::Advance:
            platform.advance(sim::Duration::millis(st.a == 0 ? 1 : st.a));
            break;
        case ScenarioStep::Kind::Restart: {
            if (created.empty())
                break;
            const faas::InstanceId victim = created[st.a % created.size()];
            if (platform.instanceInfo(victim).state ==
                faas::InstanceState::Terminated)
                break;
            const faas::InstanceId repl = audit.restart(victim, where);
            std::ostringstream line;
            line << "step=" << step_no << " old=" << victim
                 << " new=" << repl;
            log.restarted.push_back(line.str());
            break;
        }
        case ScenarioStep::Kind::SetConcurrency:
            platform.orchestrator().setMaxConcurrency(svc,
                                                      st.a == 0 ? 1 : st.a);
            break;
        case ScenarioStep::Kind::SetQuota:
            platform.setAccountQuota(
                accounts[st.target % accounts.size()],
                st.a == 0 ? 1 : st.a);
            break;
        case ScenarioStep::Kind::Redeploy:
            platform.redeployService(svc);
            break;
        case ScenarioStep::Kind::SpendProbe:
            for (std::size_t a = 0; a < accounts.size(); ++a) {
                std::ostringstream line;
                line << "step=" << step_no << " acct=" << a << " usd="
                     << fmtUsd(audit.spend(accounts[a], where));
                log.spend.push_back(line.str());
            }
            break;
        case ScenarioStep::Kind::OpenLoop: {
            const faas::ArrivalSpec spec = openLoopSpecOf(st);
            // Engine streams fork from the scenario seed + step label,
            // so the draw sequence is a scenario property shared by
            // every oracle arm (threads / obs).
            faas::ArrivalEngine engine(
                platform, svc, spec,
                sim::Rng(cfg.seed).fork(0x4f4c0000ULL + step_no));
            engine.start();
            // The step blocks through the whole span plus a short
            // tail so in-window cold-start dispatches settle.
            platform.advance(spec.span + sim::Duration::seconds(5));
            break;
        }
        }
        noteCreated(trace_mark);
        if (opts.step_hook) {
            RunOptions::StepSample sample;
            sample.step = step_no;
            sample.t_s = platform.clock().now().secondsF();
            sample.instances = platform.orchestrator().instanceCount();
            sample.placements = trace.events().size();
            sample.routed = log.routed.size();
            opts.step_hook(sample);
        }
        ++step_no;
    }
    barrierAdvance(step_no); // all-prefix scenarios still reach the wall

    // Drain: everything idle passes idle_max (15 min), so all reaps
    // fire or are cancelled and billing settles.
    platform.advance(sim::Duration::minutes(20));

    for (const faas::AccountId id : accounts)
        log.final_spend_usd.push_back(audit.spend(id, "final spend"));
    log.reference_mismatch = audit.mismatch();
    log.slo = renderSlo(platform.orchestrator().sloStats());
    log.trace = trace.events();
    log.instance_count = platform.orchestrator().instanceCount();
    log.events_scheduled = platform.clock().scheduled();
    log.events_processed = platform.clock().processed();
    log.events_cancelled = platform.clock().cancelled();
    log.events_pending = platform.clock().pending();
    return log;
}

namespace {

faas::ShardedConfig
shardedConfigOf(const Scenario &scenario, const ShardedRunOptions &opts)
{
    faas::ShardedConfig cfg;
    cfg.profile = profileOf(scenario.profile);
    if (scenario.host_count != 0)
        cfg.profile.host_count = scenario.host_count;
    cfg.orchestrator.isolate_accounts = scenario.isolate_accounts;
    if (scenario.hot_burst_min != 0)
        cfg.orchestrator.hot_burst_min = scenario.hot_burst_min;
    cfg.orchestrator.fault_injection = scenario.fault;
    cfg.seed = opts.seed_override != 0 ? opts.seed_override : scenario.seed;
    cfg.shards = opts.shards;
    cfg.threads = opts.threads;
    return cfg;
}

/**
 * Compile steps [first, last) of @p scenario into timestamped ops,
 * advancing the virtual-time cursor @p t and mirroring the serial
 * runner's shape: Advance moves the cursor, Burst expands into routes
 * 2 ms apart (advancing the cursor with them), everything else
 * happens at the cursor. Step labels are absolute step indices — the
 * per-service open-loop streams seed from the label, so a suffix
 * compiled on its own (the fork path) draws exactly the streams the
 * same steps draw in one straight pass.
 */
void
compileOps(const Scenario &scenario, std::size_t first, std::size_t last,
           const std::vector<faas::AccountId> &accounts,
           const std::vector<faas::ServiceId> &services, sim::SimTime &t,
           std::vector<faas::ShardOp> &ops)
{
    for (std::size_t i = first; i < last; ++i) {
        const ScenarioStep &st = scenario.steps[i];
        faas::ShardOp op;
        op.at = t;
        op.step = static_cast<std::uint32_t>(i);
        op.service = services[st.target % services.size()];
        switch (st.kind) {
        case ScenarioStep::Kind::Connect:
            op.kind = faas::ShardOp::Kind::Connect;
            op.a = st.a;
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::Disconnect:
            op.kind = faas::ShardOp::Kind::Disconnect;
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::Route:
            op.kind = faas::ShardOp::Kind::Route;
            op.dur = sim::Duration::millis(st.a == 0 ? 1 : st.a);
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::Burst: {
            const std::uint32_t n = st.a == 0 ? 1 : st.a;
            for (std::uint32_t j = 0; j < n; ++j) {
                op.at = t;
                op.sub = j;
                op.kind = faas::ShardOp::Kind::Route;
                op.dur = sim::Duration::millis(st.b == 0 ? 1 : st.b);
                ops.push_back(op);
                t += sim::Duration::millis(2);
            }
            break;
        }
        case ScenarioStep::Kind::Advance:
            t += sim::Duration::millis(st.a == 0 ? 1 : st.a);
            break;
        case ScenarioStep::Kind::Restart:
            op.kind = faas::ShardOp::Kind::Restart;
            // The pick both chooses the lane (via its account) and
            // indexes that lane's created list — total and
            // partition-invariant, like the serial global-list pick.
            op.account = accounts[st.a % accounts.size()];
            op.a = st.a;
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::SetConcurrency:
            op.kind = faas::ShardOp::Kind::SetConcurrency;
            op.a = st.a;
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::SetQuota:
            op.kind = faas::ShardOp::Kind::SetQuota;
            op.account = accounts[st.target % accounts.size()];
            op.a = st.a;
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::Redeploy:
            op.kind = faas::ShardOp::Kind::Redeploy;
            ops.push_back(op);
            break;
        case ScenarioStep::Kind::SpendProbe:
            for (std::size_t a = 0; a < accounts.size(); ++a) {
                op.kind = faas::ShardOp::Kind::SpendProbe;
                op.sub = static_cast<std::uint32_t>(a);
                op.account = accounts[a];
                ops.push_back(op);
            }
            break;
        case ScenarioStep::Kind::OpenLoop: {
            const faas::ArrivalSpec spec = openLoopSpecOf(st);
            op.kind = faas::ShardOp::Kind::OpenLoop;
            op.a = st.a % 3; // ArrivalKind, mirroring openLoopSpecOf
            op.rate = spec.rate_rps;
            op.burst = spec.burst_factor;
            op.dur = spec.mean_service_time;
            op.span = spec.span;
            op.gap = spec.churn_every;
            ops.push_back(op);
            // Mirror the serial runner's blocking shape: later steps
            // start after the stream span and its settling tail.
            t += spec.span + sim::Duration::seconds(5);
            break;
        }
        }
    }
}

/**
 * Compile the whole composed script: prefix from the epoch, then —
 * for a time-travel scenario — the cursor jumps to the fork wall and
 * the suffix compiles after it. One rule for both the straight arm
 * and the fork arm, so their op lists agree byte for byte.
 */
sim::SimTime
compileScript(const Scenario &scenario,
              const std::vector<faas::AccountId> &accounts,
              const std::vector<faas::ServiceId> &services,
              std::vector<faas::ShardOp> &ops)
{
    sim::SimTime t;
    const std::size_t split = prefixSplitOf(scenario);
    compileOps(scenario, 0, split, accounts, services, t, ops);
    if (scenario.has_timetravel) {
        t = std::max(t, forkWallOf(scenario));
        compileOps(scenario, split, scenario.steps.size(), accounts,
                   services, t, ops);
    }
    return t;
}

} // namespace

std::string
runScenarioSharded(const Scenario &scenario, const ShardedRunOptions &opts)
{
    const faas::ShardedConfig cfg = shardedConfigOf(scenario, opts);
    faas::ShardedPlatform platform(cfg, opts.obs);

    std::vector<faas::AccountId> accounts;
    std::vector<faas::ServiceId> services;
    setupTenants(platform, scenario, accounts, services);

    std::vector<faas::ShardOp> ops;
    const sim::SimTime t = compileScript(scenario, accounts, services, ops);

    const sim::SimTime horizon = t + sim::Duration::minutes(20);
    if (opts.snapshot_out == nullptr) {
        platform.run(std::move(ops), horizon);
        return platform.renderLog();
    }

    // Checkpoint-capture mode: step the window loop by hand so the
    // requested barrier can be captured in its pre-fold state.
    opts.snapshot_out->clear();
    platform.beginRun(std::move(ops), horizon);
    std::uint32_t window = 0;
    while (platform.running()) {
        platform.advanceWindow();
        if (opts.snapshot_out->empty() && window >= opts.snapshot_at_window)
            *opts.snapshot_out = snap::Snapshotter::capture(platform);
        platform.completeWindow();
        ++window;
    }
    return platform.renderLog();
}

bool
resumeScenarioSharded(const Scenario &scenario, const ShardedRunOptions &opts,
                      const std::vector<std::uint8_t> &image,
                      std::string &log, std::string &error)
{
    const faas::ShardedConfig cfg = shardedConfigOf(scenario, opts);
    // No accounts/services/ops setup: restore() replaces the platform
    // state wholesale, including the id maps and lane scripts.
    faas::ShardedPlatform platform(cfg, opts.obs);
    if (!snap::Snapshotter::restore(image, platform, error))
        return false;
    platform.resumeRun();
    log = platform.renderLog();
    return true;
}

bool
runScenarioToBarrier(const Scenario &scenario, const ShardedRunOptions &opts,
                     BarrierPrime &out, std::string &error)
{
    if (!scenario.has_timetravel) {
        error = "scenario carries no [timetravel] metadata";
        return false;
    }
    const faas::ShardedConfig cfg = shardedConfigOf(scenario, opts);
    faas::ShardedPlatform platform(cfg, opts.obs);

    std::vector<faas::AccountId> accounts;
    std::vector<faas::ServiceId> services;
    setupTenants(platform, scenario, accounts, services);

    // Prefix only: the suffix never exists on the primed platform —
    // forks append their own. The prefix horizon still carries the
    // 20-minute drain, so every barrier a fuzz driver picks (well
    // under 40 windows) is reachable even for an empty prefix.
    std::vector<faas::ShardOp> ops;
    sim::SimTime t;
    const std::size_t split = prefixSplitOf(scenario);
    compileOps(scenario, 0, split, accounts, services, t, ops);
    out.fork_origin = std::max(t, forkWallOf(scenario));
    out.suffix_label = static_cast<std::uint32_t>(split);

    platform.beginRun(std::move(ops), t + sim::Duration::minutes(20));
    std::uint32_t window = 0;
    while (platform.running()) {
        platform.advanceWindow();
        if (window >= scenario.tt_barrier) {
            // Pre-fold capture, exactly like the snapshot oracle; the
            // half-run platform is abandoned — forks restore from the
            // image, parsed once here for the restore fast path.
            out.image = snap::Snapshotter::capture(platform);
            out.prefix_log = platform.renderLog();
            return out.reader.parse(out.image, error, opts.threads);
        }
        platform.completeWindow();
        ++window;
    }
    std::ostringstream msg;
    msg << "barrier window " << scenario.tt_barrier
        << " not reached: the prefix run ended after " << window
        << " windows";
    error = msg.str();
    return false;
}

bool
restoreScenarioBarrier(const Scenario &scenario,
                       const ShardedRunOptions &opts,
                       const BarrierPrime &prime, std::string &log,
                       std::string &error)
{
    const faas::ShardedConfig cfg = shardedConfigOf(scenario, opts);
    faas::ShardedPlatform platform(cfg, opts.obs);
    if (!snap::Snapshotter::restore(prime.reader, platform, error))
        return false;
    log = platform.renderLog();
    return true;
}

bool
runScenarioForked(const Scenario &scenario, const ShardedRunOptions &opts,
                  const BarrierPrime &prime, std::string &log,
                  std::string &error)
{
    const faas::ShardedConfig cfg = shardedConfigOf(scenario, opts);
    faas::ShardedPlatform platform(cfg, opts.obs);
    if (!snap::Snapshotter::restore(prime.reader, platform, error))
        return false;

    // The image restored the tenant maps, and both createAccount and
    // deployService hand out dense ids in creation order — so the
    // global ids are the indices and the suffix can be compiled
    // without touching the platform.
    std::vector<faas::AccountId> accounts(scenario.accounts.size());
    std::iota(accounts.begin(), accounts.end(), faas::AccountId{0});
    std::vector<faas::ServiceId> services(scenario.services.size());
    std::iota(services.begin(), services.end(), faas::ServiceId{0});

    std::vector<faas::ShardOp> ops;
    sim::SimTime t = prime.fork_origin;
    compileOps(scenario, prime.suffix_label, scenario.steps.size(), accounts,
               services, t, ops);
    platform.appendOps(std::move(ops), t + sim::Duration::minutes(20));
    platform.resumeRun();
    log = platform.renderLog();
    return true;
}

} // namespace eaao::testkit
