/**
 * @file
 * Implementation of the sharded platform (see sharded.hpp and
 * docs/sharding.md for the protocol).
 */

#include "faas/sharded.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/metrics.hpp"
#include "support/logging.hpp"

namespace eaao::faas {

namespace {

std::string
fmtUsd(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

ArrivalSpec
openLoopSpec(const ShardOp &op)
{
    ArrivalSpec spec;
    spec.kind =
        static_cast<ArrivalKind>(op.a % 3); // Poisson/Diurnal/Pareto
    spec.rate_rps = op.rate;
    spec.burst_factor = std::max(1.0, op.burst);
    spec.mean_service_time = op.dur;
    spec.span = op.span;
    spec.churn_every = op.gap;
    return spec;
}

ShardedPlatform::ShardedPlatform(const ShardedConfig &cfg,
                                 obs::TrialSet *obs_set)
    : cfg_(cfg), obs_set_(obs_set), final_now_(cfg.epoch)
{
    EAAO_ASSERT(cfg_.window.ns() > 0, "window must be positive");
    sim::Rng root(cfg_.seed);
    sim::Rng fleet_rng = root.fork(0x464c4545ULL); // "FLEE"
    fleet_ = std::make_unique<Fleet>(cfg_.profile, cfg_.tsc, cfg_.timing,
                                     cfg_.epoch, fleet_rng);

    const std::uint32_t lanes = std::min<std::uint32_t>(
        std::max(1u, cfg_.max_lanes), fleet_->shardCount());
    if (obs_set != nullptr)
        obs_set->prepare(lanes);
    lanes_.reserve(lanes);
    for (std::uint32_t i = 0; i < lanes; ++i) {
        auto lane = std::make_unique<Lane>(cfg_.epoch);
        // Per-lane root stream, forked by the *fixed* lane index: the
        // draw sequence is a lane property, never a grouping property.
        lane->orch = std::make_unique<Orchestrator>(
            *fleet_, lane->eq, cfg_.orchestrator, cfg_.profile,
            cfg_.pricing, root.fork(0x53480000ULL + i), // "SH" + lane
            obs_set != nullptr ? obs_set->observer(i) : obs::Observer{});
        lane->orch->attachCommittedLoad(&committed_);
        lane->orch->attachTrace(&lane->trace);
        lanes_.push_back(std::move(lane));
    }
}

ShardedPlatform::~ShardedPlatform() = default;

AccountId
ShardedPlatform::createAccount(std::optional<std::uint32_t> shard,
                               std::uint32_t quota_per_service)
{
    const auto global = static_cast<AccountId>(acct_map_.size());
    // Default home shard: the standalone orchestrator's hash, keyed on
    // the GLOBAL id (lane-local creation order must not leak in).
    const std::uint32_t home =
        shard ? *shard
              : static_cast<std::uint32_t>(
                    sim::mix64(global * 0x9e3779b97f4a7c15ULL + 17) %
                    fleet_->shardCount());
    EAAO_ASSERT(home < fleet_->shardCount(), "bad shard ", home);
    const std::uint32_t lane = home % laneCount();
    const AccountId local =
        lanes_[lane]->orch->createAccount(home, quota_per_service);
    lanes_[lane]->accounts.push_back(local);
    acct_map_.emplace_back(lane, local);
    return global;
}

ServiceId
ShardedPlatform::deployService(AccountId account, ExecEnv env,
                               ContainerSize size)
{
    EAAO_ASSERT(account < acct_map_.size(), "bad account ", account);
    const auto [lane, local_acct] = acct_map_[account];
    const ServiceId local =
        lanes_[lane]->orch->deployService(local_acct, env, size);
    lanes_[lane]->services.push_back(local);
    svc_map_.emplace_back(lane, local);
    return static_cast<ServiceId>(svc_map_.size() - 1);
}

std::uint32_t
ShardedPlatform::laneOfAccount(AccountId account) const
{
    EAAO_ASSERT(account < acct_map_.size(), "bad account ", account);
    return acct_map_[account].first;
}

std::uint32_t
ShardedPlatform::laneOfService(ServiceId service) const
{
    EAAO_ASSERT(service < svc_map_.size(), "bad service ", service);
    return svc_map_[service].first;
}

std::uint32_t
ShardedPlatform::laneForOp(const ShardOp &op) const
{
    switch (op.kind) {
    case ShardOp::Kind::SetQuota:
    case ShardOp::Kind::Restart:
    case ShardOp::Kind::SpendProbe:
        return laneOfAccount(op.account);
    default:
        return laneOfService(op.service);
    }
}

const Orchestrator &
ShardedPlatform::laneOrchestrator(std::uint32_t lane) const
{
    EAAO_ASSERT(lane < lanes_.size(), "bad lane ", lane);
    return *lanes_[lane]->orch;
}

std::uint32_t
ShardedPlatform::groupCount() const
{
    return std::min<std::uint32_t>(std::max(1u, cfg_.shards), laneCount());
}

std::uint32_t
ShardedPlatform::groupLocalIndex(std::uint32_t lane) const
{
    // Contiguous partition: the first `rem` groups get `base + 1`
    // lanes, the rest `base`.
    const std::uint32_t groups = groupCount();
    const std::uint32_t base = laneCount() / groups;
    const std::uint32_t rem = laneCount() % groups;
    const std::uint32_t big = rem * (base + 1);
    if (lane < big)
        return lane % (base + 1);
    return (lane - big) % base;
}

bool
ShardedPlatform::allOpsConsumed() const
{
    for (const auto &lane : lanes_) {
        if (lane->next_op < lane->ops.size() || lane->storm != nullptr)
            return false;
    }
    return true;
}

void
ShardedPlatform::run(std::vector<ShardOp> ops, sim::SimTime horizon)
{
    beginRun(std::move(ops), horizon);
    while (running_) {
        advanceWindow();
        completeWindow();
    }
}

void
ShardedPlatform::beginRun(std::vector<ShardOp> ops, sim::SimTime horizon)
{
    EAAO_ASSERT(!running_, "beginRun during an active run");
    // Partition the script onto lanes, preserving the script order
    // (which must be time-sorted) per lane.
    for (const ShardOp &op : ops) {
        Lane &l = *lanes_[laneForOp(op)];
        EAAO_ASSERT(l.ops.empty() || l.ops.back().at <= op.at,
                    "ops not time-sorted on lane");
        l.ops.push_back(op);
    }

    run_horizon_ = horizon;
    // First run: final_now_ is the epoch. Later runs: the window
    // sequence continues from the last barrier, so phase-split runs
    // match a single combined run barrier for barrier.
    next_wend_ = final_now_ + cfg_.window;
    running_ = true;
    pending_fold_ = false;
}

void
ShardedPlatform::appendOps(std::vector<ShardOp> ops, sim::SimTime horizon)
{
    EAAO_ASSERT(running_, "appendOps without an in-flight run");
    // With a fold pending (the pre-fold capture point) the lanes have
    // already run to next_wend_; an op at or before that barrier
    // would land in a window whose exchange is already decided.
    const sim::SimTime barrier = pending_fold_ ? next_wend_ : final_now_;
    for (const ShardOp &op : ops) {
        EAAO_ASSERT(op.at > barrier,
                    "appended op not after the fork barrier");
        Lane &l = *lanes_[laneForOp(op)];
        EAAO_ASSERT(l.ops.empty() || l.ops.back().at <= op.at,
                    "appended ops not time-sorted on lane");
        // l.storm aliases l.ops; push_back may reallocate, so carry
        // it across as an index (the snapshotter does the same).
        const bool had_storm = l.storm != nullptr;
        const std::size_t storm_index =
            had_storm ? static_cast<std::size_t>(l.storm - l.ops.data())
                      : 0;
        l.ops.push_back(op);
        if (had_storm)
            l.storm = l.ops.data() + storm_index;
    }
    if (run_horizon_ < horizon)
        run_horizon_ = horizon;
    if (cfg_.orchestrator.fault_injection == 6) {
        for (auto &lane : lanes_)
            lane->orch->faultRearmDispatchTimers();
    }
}

void
ShardedPlatform::ensurePool()
{
    const std::uint32_t groups = groupCount();
    if (cfg_.threads > 1 && groups > 1 && pool_ == nullptr) {
        pool_ = std::make_unique<exp::ThreadPool>(
            std::min<unsigned>(cfg_.threads, groups));
    }
}

void
ShardedPlatform::advanceWindow()
{
    EAAO_ASSERT(running_ && !pending_fold_,
                "advanceWindow outside an active run");
    ensurePool();
    runWindow(next_wend_);
    pending_fold_ = true;
}

void
ShardedPlatform::completeWindow()
{
    EAAO_ASSERT(pending_fold_, "completeWindow without advanceWindow");
    foldBarrier(windows_run_);
    ++windows_run_;
    final_now_ = next_wend_;
    pending_fold_ = false;
    if (next_wend_ >= run_horizon_ && allOpsConsumed())
        running_ = false;
    else
        next_wend_ = next_wend_ + cfg_.window;
}

void
ShardedPlatform::resumeRun()
{
    EAAO_ASSERT(running_, "resumeRun without an in-flight run");
    if (pending_fold_)
        completeWindow();
    while (running_) {
        advanceWindow();
        completeWindow();
    }
}

void
ShardedPlatform::runWindow(sim::SimTime wend)
{
    const std::uint32_t groups = groupCount();
    const std::uint32_t base = laneCount() / groups;
    const std::uint32_t rem = laneCount() % groups;
    const bool fault3 = cfg_.orchestrator.fault_injection == 3;

    std::uint32_t start = 0;
    for (std::uint32_t g = 0; g < groups; ++g) {
        const std::uint32_t size = base + (g < rem ? 1u : 0u);
        const auto body = [this, start, size, wend, fault3] {
            for (std::uint32_t i = 0; i < size; ++i) {
                // Fault 3 (mutation self-test): every non-leading lane
                // of a group stops one millisecond short of the
                // barrier, so its boundary activity folds one window
                // late — a grouping-dependent bug the shard-equality
                // oracle must catch via the exchange digest.
                const sim::SimTime stop =
                    fault3 && i != 0 ? wend - sim::Duration::millis(1)
                                     : wend;
                laneRunWindow(*lanes_[start + i], stop);
            }
        };
        if (pool_ != nullptr)
            pool_->submit(body);
        else
            body();
        start += size;
    }
    if (pool_ != nullptr)
        pool_->wait();
}

void
ShardedPlatform::laneRunWindow(Lane &lane, sim::SimTime stop)
{
    // Arm every open-loop stream for this window first, so their
    // reserved seqs precede everything the window schedules. Streams
    // re-arm only before `stop`, so none is pending at the barrier
    // capture point.
    lane.window_stop = stop;
    for (Lane::OpenLoop &ol : lane.open_loops)
        armOpenLoop(lane, ol);
    while (true) {
        if (lane.storm != nullptr && !runStorm(lane, stop))
            return; // storm paused at the window boundary
        if (lane.next_op >= lane.ops.size())
            break;
        const ShardOp &op = lane.ops[lane.next_op];
        if (op.at > stop)
            break;
        lane.eq.runUntil(op.at);
        applyOp(lane, op);
        ++lane.next_op;
    }
    lane.eq.runUntil(stop);
}

bool
ShardedPlatform::runStorm(Lane &lane, sim::SimTime stop)
{
    const ShardOp &op = *lane.storm;
    const auto [svc_lane, local_svc] = svc_map_[op.service];
    const auto [acct_lane, local_acct] = acct_map_[op.account];
    while (lane.storm_done < op.n) {
        if (lane.storm_t > stop)
            return false;
        lane.eq.runUntil(lane.storm_t);
        const sim::Duration service_time =
            op.dur + op.dur_step * static_cast<std::int64_t>(
                         lane.storm_done % std::max(1u, op.dur_mod));
        lane.orch->routeRequest(local_svc, service_time);
        ++lane.routed_count;
        if (op.spend_every != 0 && lane.storm_done % op.spend_every == 0)
            lane.spend_checksum += lane.orch->accountSpendUsd(local_acct);
        ++lane.storm_done;
        if (op.gap_every != 0 && lane.storm_done % op.gap_every == 0)
            lane.storm_t = lane.storm_t + op.gap;
    }
    lane.storm = nullptr;
    lane.storm_done = 0;
    return true;
}

void
ShardedPlatform::armOpenLoop(Lane &lane, Lane::OpenLoop &ol)
{
    const ServiceId local_svc =
        svc_map_[lane.ops[ol.op_index].service].second;
    ol.stream.arm(lane.eq, *lane.orch, local_svc, lane.window_stop);
}

void
ShardedPlatform::noteCreated(Lane &lane)
{
    const auto &events = lane.trace.events();
    for (; lane.trace_scanned < events.size(); ++lane.trace_scanned) {
        if (events[lane.trace_scanned].reason != PlacementReason::Reuse)
            lane.created.push_back(events[lane.trace_scanned].instance);
    }
}

void
ShardedPlatform::applyOp(Lane &lane, const ShardOp &op)
{
    const auto label = [&op] {
        std::ostringstream out;
        out << "step=" << op.step;
        if (op.sub != ~0u)
            out << "." << op.sub;
        return out.str();
    };

    switch (op.kind) {
    case ShardOp::Kind::Connect:
        lane.orch->scaleOut(svc_map_[op.service].second,
                            op.a == 0 ? 1 : op.a);
        break;
    case ShardOp::Kind::Disconnect:
        lane.orch->disconnectAll(svc_map_[op.service].second);
        break;
    case ShardOp::Kind::Route: {
        const InstanceId inst =
            lane.orch->routeRequest(svc_map_[op.service].second, op.dur);
        ++lane.routed_count;
        std::ostringstream line;
        line << label() << " inst=" << inst
             << " host=" << lane.orch->instance(inst).host;
        lane.routed.push_back(line.str());
        break;
    }
    case ShardOp::Kind::RouteStorm:
        lane.storm = &op;
        lane.storm_done = 0;
        lane.storm_t = op.at;
        break;
    case ShardOp::Kind::SetConcurrency:
        lane.orch->setMaxConcurrency(svc_map_[op.service].second,
                                     op.a == 0 ? 1 : op.a);
        break;
    case ShardOp::Kind::SetQuota:
        lane.orch->setAccountQuota(acct_map_[op.account].second,
                                   op.a == 0 ? 1 : op.a);
        break;
    case ShardOp::Kind::Redeploy:
        lane.orch->redeployService(svc_map_[op.service].second);
        break;
    case ShardOp::Kind::Restart: {
        noteCreated(lane);
        if (lane.created.empty())
            break;
        const InstanceId victim = lane.created[op.a % lane.created.size()];
        if (lane.orch->instance(victim).state ==
            InstanceState::Terminated)
            break;
        const InstanceId repl = lane.orch->restartInstance(victim);
        std::ostringstream line;
        line << label() << " old=" << victim << " new=" << repl;
        lane.restarted.push_back(line.str());
        break;
    }
    case ShardOp::Kind::SpendProbe: {
        std::ostringstream line;
        line << label() << " acct=" << op.account << " usd="
             << fmtUsd(lane.orch->accountSpendUsd(
                    acct_map_[op.account].second));
        lane.spend.push_back(line.str());
        break;
    }
    case ShardOp::Kind::OpenLoop: {
        EAAO_ASSERT(op.rate > 0.0, "open-loop op without a rate");
        EAAO_ASSERT(op.span.ns() > 0, "open-loop op without a span");
        // Stream seed is a pure script property (trial seed + op label
        // + global service id), never a lane-grouping property.
        const sim::Rng rng(sim::mix64(
            cfg_.seed ^ 0x0a1e00000000ULL ^
            (static_cast<std::uint64_t>(op.step) << 20) ^ op.service));
        Lane::OpenLoop &ol = lane.open_loops.emplace_back(Lane::OpenLoop{
            static_cast<std::size_t>(&op - lane.ops.data()),
            OpenLoopStream(openLoopSpec(op), rng, op.at)});
        // Cover the remainder of the current window right away; later
        // windows arm every stream at their top.
        armOpenLoop(lane, ol);
        break;
    }
    }
}

void
ShardedPlatform::foldBarrier(std::uint32_t window_index)
{
    const bool fault4 = cfg_.orchestrator.fault_injection == 4;
    support::HostLoadFold total;
    std::uint32_t folded_lanes = 0;
    for (std::uint32_t i = 0; i < laneCount(); ++i) {
        support::HostLoadTable &delta = lanes_[i]->orch->localLoad();
        // Fault 4 (mutation self-test): non-leading lanes of a group
        // lose their exchange — the cross-lane capacity message is
        // dropped on the floor. Grouping-dependent by construction.
        if (fault4 && groupLocalIndex(i) != 0) {
            delta.drain(nullptr);
            continue;
        }
        const support::HostLoadFold fold = delta.drain(&committed_);
        if (fold.hosts != 0) {
            ++folded_lanes;
            total.hosts += fold.hosts;
            total.vcpus += fold.vcpus;
            total.mem_gb += fold.mem_gb;
        }
    }
    if (folded_lanes != 0) {
        std::ostringstream line;
        line << "window=" << window_index << " lanes=" << folded_lanes
             << " hosts=" << total.hosts << " vcpus=" << fmtUsd(total.vcpus)
             << " mem=" << fmtUsd(total.mem_gb);
        exchange_log_.push_back(line.str());
    }
}

std::string
ShardedPlatform::renderLog() const
{
    std::ostringstream out;
    out << "sharded lanes=" << laneCount()
        << " window_ns=" << cfg_.window.ns() << " windows=" << windows_run_
        << "\n";
    for (std::uint32_t i = 0; i < laneCount(); ++i) {
        const Lane &lane = *lanes_[i];
        out << "lane " << i << "\n";
        out << "trace " << lane.trace.events().size() << "\n";
        for (const PlacementEvent &e : lane.trace.events()) {
            out << "  t=" << e.when.ns() << " inst=" << e.instance
                << " svc=" << e.service << " acct=" << e.account
                << " host=" << e.host << " why=" << toString(e.reason)
                << "\n";
        }
        out << "routed " << lane.routed.size() << "\n";
        for (const std::string &line : lane.routed)
            out << "  " << line << "\n";
        out << "restarted " << lane.restarted.size() << "\n";
        for (const std::string &line : lane.restarted)
            out << "  " << line << "\n";
        out << "spend " << lane.spend.size() << "\n";
        for (const std::string &line : lane.spend)
            out << "  " << line << "\n";
        out << "final_spend";
        for (const AccountId local : lane.accounts)
            out << " " << fmtUsd(lane.orch->accountSpendUsd(local));
        out << "\n";
        out << "routed_count " << lane.routed_count << "\n";
        out << "spend_checksum " << fmtUsd(lane.spend_checksum) << "\n";
        // Open-loop sections are conditional so scripts without any
        // OpenLoop op render exactly as before this op existed.
        if (!lane.open_loops.empty()) {
            out << "open_loop " << lane.open_loops.size() << "\n";
            for (const Lane::OpenLoop &ol : lane.open_loops) {
                const ShardOp &op = lane.ops[ol.op_index];
                out << "  step=" << op.step << " svc=" << op.service
                    << " kind=" << (op.a % 3)
                    << " generated=" << ol.stream.generated() << "\n";
            }
        }
        const SloStats &slo = lane.orch->sloStats();
        if (slo.admitted != 0) {
            out << "slo admitted=" << slo.admitted
                << " served_warm=" << slo.served_warm
                << " queued=" << slo.queued
                << " dispatched=" << slo.dispatched
                << " rejected=" << slo.rejected << " shed=" << slo.shed
                << "\n";
            const auto q = [](const obs::Histogram &h, double p) {
                return fmtUsd(obs::histogramQuantile(h, p));
            };
            out << "slo_latency_s p50=" << q(slo.latency_s, 0.50)
                << " p95=" << q(slo.latency_s, 0.95)
                << " p99=" << q(slo.latency_s, 0.99)
                << " p999=" << q(slo.latency_s, 0.999) << "\n";
            if (slo.cold_wait_s.count != 0) {
                out << "slo_cold_wait_s p50=" << q(slo.cold_wait_s, 0.50)
                    << " p95=" << q(slo.cold_wait_s, 0.95)
                    << " p99=" << q(slo.cold_wait_s, 0.99)
                    << " p999=" << q(slo.cold_wait_s, 0.999) << "\n";
            }
        }
        out << "instances " << lane.orch->instanceCount() << "\n";
        out << "events scheduled=" << lane.eq.scheduled()
            << " processed=" << lane.eq.processed()
            << " cancelled=" << lane.eq.cancelled()
            << " pending=" << lane.eq.pending() << "\n";
    }
    out << "exchange " << exchange_log_.size() << "\n";
    for (const std::string &line : exchange_log_)
        out << "  " << line << "\n";
    return out.str();
}

ShardedTotals
ShardedPlatform::totals() const
{
    ShardedTotals t;
    t.windows = windows_run_;
    for (const auto &lane : lanes_) {
        t.routed += lane->routed_count;
        for (const Lane::OpenLoop &ol : lane->open_loops)
            t.open_loop += ol.stream.generated();
        t.instances += lane->orch->instanceCount();
        t.spend_checksum += lane->spend_checksum;
        t.events_scheduled += lane->eq.scheduled();
        t.events_processed += lane->eq.processed();
        t.events_cancelled += lane->eq.cancelled();
        t.events_pending += lane->eq.pending();
    }
    for (const auto &[lane, local] : acct_map_)
        t.final_spend_usd += lanes_[lane]->orch->accountSpendUsd(local);
    return t;
}

SloStats
ShardedPlatform::sloTotals() const
{
    SloStats total;
    bool first = true;
    for (const auto &lane : lanes_) {
        const SloStats &s = lane->orch->sloStats();
        // Every lane orchestrator builds its histograms from the same
        // bucket tables, so seeding from the first lane and merging
        // the rest keeps the bounds-equality contract of merge().
        if (first) {
            total.latency_s = s.latency_s;
            total.cold_wait_s = s.cold_wait_s;
            first = false;
        } else {
            total.latency_s.merge(s.latency_s);
            total.cold_wait_s.merge(s.cold_wait_s);
        }
        total.admitted += s.admitted;
        total.served_warm += s.served_warm;
        total.queued += s.queued;
        total.dispatched += s.dispatched;
        total.rejected += s.rejected;
        total.shed += s.shed;
    }
    return total;
}

} // namespace eaao::faas
