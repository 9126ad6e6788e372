/**
 * @file
 * Implementation of the orchestrator.
 */

#include "faas/orchestrator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "sim/distributions.hpp"
#include "support/logging.hpp"

namespace eaao::faas {

Orchestrator::Orchestrator(Fleet &fleet, sim::EventQueue &eq,
                           const OrchestratorConfig &cfg,
                           const DataCenterProfile &profile,
                           const PricingModel &pricing, sim::Rng rng,
                           obs::Observer obs)
    : fleet_(fleet), eq_(eq), cfg_(cfg), profile_(profile),
      pricing_(pricing), rng_(rng), obs_(obs)
{
    host_load_.assign(fleet_.size());
    acct_load_.resize(fleet_.size());

    slo_.latency_s.bounds = obs::requestLatencyBucketsS();
    slo_.latency_s.counts.assign(slo_.latency_s.bounds.size() + 1, 0);
    slo_.cold_wait_s.bounds = obs::coldWaitBucketsS();
    slo_.cold_wait_s.counts.assign(slo_.cold_wait_s.bounds.size() + 1, 0);

    if (obs_.metrics != nullptr) {
        // Resolve handles once; record sites only null-check.
        static const char *const kReasonCounters[kPlacementReasonCount] = {
            "faas.placements.cold_base",    "faas.placements.hot_helper",
            "faas.placements.cold_spill",   "faas.placements.cold_overflow",
            "faas.placements.reuse",
        };
        for (std::size_t i = 0; i < kPlacementReasonCount; ++i)
            c_placements_[i] = obs_.metrics->counter(kReasonCounters[i]);
        c_reaps_ = obs_.metrics->counter("faas.reaps");
        c_requests_ = obs_.metrics->counter("faas.requests");
        h_cold_start_s_ = obs_.metrics->histogram(
            "faas.cold_start_s", obs::coldStartBucketsS());
        h_instances_per_host_ = obs_.metrics->histogram(
            "faas.instances_per_host", obs::instancesPerHostBuckets());
        h_helper_churn_ = obs_.metrics->histogram(
            "faas.helper_churn", obs::churnFractionBuckets());
        h_request_latency_s_ = obs_.metrics->histogram(
            "faas.request_latency_s", obs::requestLatencyBucketsS());
        h_cold_wait_s_ = obs_.metrics->histogram(
            "faas.cold_wait_s", obs::coldWaitBucketsS());
    }
}

AccountId
Orchestrator::createAccount(std::optional<std::uint32_t> shard,
                            std::uint32_t quota_per_service)
{
    AccountRecord acct;
    acct.id = static_cast<AccountId>(accounts_.size());
    acct.quota_per_service = quota_per_service;
    if (shard) {
        EAAO_ASSERT(*shard < fleet_.shardCount(), "bad shard ", *shard);
        acct.shard = *shard;
    } else {
        acct.shard = static_cast<std::uint32_t>(
            sim::mix64(acct.id * 0x9e3779b97f4a7c15ULL + 17) %
            fleet_.shardCount());
    }
    sim::Rng stream = rng_.fork(0x8a5e000000000000ULL + acct.id);
    acct.base_order =
        buildBaseOrder(acct, profile_.base_order_jitter, stream);
    accounts_.push_back(std::move(acct));
    base_index_.emplace_back();
    acct_active_.emplace_back();
    rebuildBaseIndex(accounts_.back());
    return accounts_.back().id;
}

ServiceId
Orchestrator::deployService(AccountId account, ExecEnv env,
                            ContainerSize size)
{
    EAAO_ASSERT(account < accounts_.size(), "bad account ", account);
    ServiceRecord svc;
    svc.id = static_cast<ServiceId>(services_.size());
    svc.account = account;
    svc.env = env;
    svc.size = size;
    svc.helper_seed =
        sim::mix64(0x5e1fbeef00000000ULL + svc.id * 2654435761ULL);
    svc.helper_order =
        buildHelperOrder(accounts_[account].shard, svc.helper_seed);
    svc.spill_order = buildSpillOrder(accounts_[account].shard,
                                      sim::mix64(svc.helper_seed));
    services_.push_back(std::move(svc));
    admission_.emplace_back();
    svc_host_load_.emplace_back(fleet_.size(), 0u);
    return services_.back().id;
}

void
Orchestrator::redeployService(ServiceId service)
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    // A fresh container image does not change the account-affine
    // placement behaviour the paper observed (Experiment 2 variant), so
    // preferences and demand history are retained.
}

std::uint32_t
Orchestrator::hotness(const ServiceRecord &svc) const
{
    const sim::SimTime cutoff = eq_.now() - cfg_.demand_window;
    std::uint32_t h = 0;
    for (const auto &[when, n] : svc.bursts) {
        if (when >= cutoff && n >= cfg_.hot_burst_min)
            ++h;
    }
    return std::min(h, cfg_.hotness_cap);
}

void
Orchestrator::setAccountQuota(AccountId account,
                              std::uint32_t quota_per_service)
{
    EAAO_ASSERT(account < accounts_.size(), "bad account ", account);
    accounts_[account].quota_per_service = quota_per_service;
}

std::vector<InstanceId>
Orchestrator::scaleOut(ServiceId service, std::uint32_t n)
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    ServiceRecord &svc = services_[service];
    AccountRecord &acct = accounts_[svc.account];

    // Per-service concurrency quota: the platform refuses to scale a
    // service beyond the account's cap.
    if (n > acct.quota_per_service) {
        warn("service ", service, " clamped to quota ",
             acct.quota_per_service, " (requested ", n, ")");
        n = acct.quota_per_service;
    }

    // Hotness is judged from *prior* demand within the window; the
    // current burst does not count toward its own placement.
    const std::uint32_t h = hotness(svc);
    refreshPreferences(svc, acct);

    // Prune expired bursts and record this one.
    const sim::SimTime cutoff = eq_.now() - cfg_.demand_window;
    while (!svc.bursts.empty() && svc.bursts.front().first < cutoff)
        svc.bursts.pop_front();
    svc.bursts.emplace_back(eq_.now(), n);

    EAAO_OBS_INSTANT(obs_, "orch.scale_out", "placement", eq_.now(),
                     {obs::TraceArg::u64("service", svc.id),
                      obs::TraceArg::u64("requested", n),
                      obs::TraceArg::u64("hotness", h)});

    // Reuse idle instances first (most-recently idled first).
    while (svc.active.size() < n && !svc.idle.empty()) {
        const InstanceId id = svc.idle.back();
        svc.idle.pop_back();
        InstanceRecord &inst = instances_[id];
        EAAO_ASSERT(inst.state == InstanceState::Idle,
                    "non-idle instance on idle list");
        if (inst.reap_event != 0) {
            eq_.cancel(inst.reap_event);
            inst.reap_event = 0;
        }
        inst.state = InstanceState::Active;
        inst.state_since = eq_.now();
        svc.active.push_back(id);
        noteActivated(svc, inst);
        if (trace_ != nullptr) {
            trace_->record(PlacementEvent{eq_.now(), id, svc.id,
                                          inst.account, inst.host,
                                          PlacementReason::Reuse});
        }
        EAAO_OBS_COUNT(
            c_placements_[static_cast<std::size_t>(PlacementReason::Reuse)],
            1);
        EAAO_OBS_INSTANT(obs_, "instance.reuse", "placement", eq_.now(),
                         {obs::TraceArg::u64("instance", id),
                          obs::TraceArg::u64("service", svc.id),
                          obs::TraceArg::u64("host", inst.host)});
    }

    // Create the shortfall.
    while (svc.active.size() < n)
        createInstance(svc, h);

    return svc.active;
}

void
Orchestrator::disconnectAll(ServiceId service)
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    ServiceRecord &svc = services_[service];
    std::vector<InstanceId> still_busy;
    for (const InstanceId id : svc.active) {
        InstanceRecord &inst = instances_[id];
        if (inst.in_flight > 0) {
            // A request is mid-flight; the instance idles when its
            // last request completes.
            still_busy.push_back(id);
            continue;
        }
        routing_.remove(id);
        settleActiveTime(inst);
        inst.state = InstanceState::Idle;
        inst.state_since = eq_.now();
        svc.idle.push_back(id);
        scheduleReap(inst);
    }
    svc.active = std::move(still_busy);
}

void
Orchestrator::setMaxConcurrency(ServiceId service, std::uint32_t limit)
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    EAAO_ASSERT(limit >= 1, "concurrency limit must be positive");
    services_[service].max_concurrency = limit;
}

InstanceId
Orchestrator::routeRequest(ServiceId service, sim::Duration service_time)
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    EAAO_ASSERT(service_time.ns() > 0, "non-positive service time");
    ServiceRecord &svc = services_[service];

    InstanceRecord *target = findWarmTarget(svc);

    // 3. Scale out by one instance.
    if (target == nullptr) {
        const std::uint32_t h = hotness(svc);
        noteRequestCreation(svc);
        const InstanceId id = createInstance(svc, h);
        target = &instances_[id];
    }

    return occupy(svc, *target, service_time);
}

InstanceRecord *
Orchestrator::findWarmTarget(ServiceRecord &svc)
{
    // 1. An active instance with spare concurrency: lowest in_flight,
    // active-list order (== activation sequence) breaking ties.
    InstanceId best = routing_.leastLoaded(svc.id, svc.max_concurrency);
    if (cfg_.fault_injection == 1) {
        // Injected bug (mutation self-test): drop the lowest-in-flight
        // rule and grab the most recently activated instance that
        // still has spare concurrency.
        best = kNoInstance;
        for (const InstanceId id : svc.active) {
            if (instances_[id].in_flight < svc.max_concurrency)
                best = id;
        }
    }
    InstanceRecord *target =
        best == kNoInstance ? nullptr : &instances_[best];

    // 2. Wake an idle instance (most recently idled first).
    if (target == nullptr && !svc.idle.empty()) {
        const InstanceId id = svc.idle.back();
        svc.idle.pop_back();
        InstanceRecord &inst = instances_[id];
        if (inst.reap_event != 0) {
            eq_.cancel(inst.reap_event);
            inst.reap_event = 0;
        }
        inst.state = InstanceState::Active;
        inst.state_since = eq_.now();
        svc.active.push_back(id);
        noteActivated(svc, inst);
        target = &inst;
    }

    return target;
}

InstanceId
Orchestrator::occupy(ServiceRecord &svc, InstanceRecord &target,
                     sim::Duration service_time)
{
    ++target.in_flight;
    routing_.reindex(target.id, target.in_flight);
    ++svc.requests_served;
    EAAO_OBS_COUNT(c_requests_, 1);
    const InstanceId id = target.id;
    eq_.scheduleAfter(service_time, sim::EventTag{kEventTagComplete, id},
                      [this, id] { completeRequest(id); });
    return id;
}

AdmissionResult
Orchestrator::admitRequest(ServiceId service, sim::Duration service_time)
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    EAAO_ASSERT(service_time.ns() > 0, "non-positive service time");
    ServiceRecord &svc = services_[service];
    ++slo_.admitted;

    if (InstanceRecord *target = findWarmTarget(svc)) {
        ++slo_.served_warm;
        slo_.latency_s.observe(service_time.secondsF());
        EAAO_OBS_OBSERVE(h_request_latency_s_, service_time.secondsF());
        const InstanceId id = occupy(svc, *target, service_time);
        return {AdmissionOutcome::Served, id};
    }

    // Cold path: instead of materializing an instance instantly (the
    // closed-loop routeRequest semantics), the request waits out a
    // cold start in the service's admission queue.
    AdmissionQueue &aq = admission_[service];
    AdmissionOutcome outcome = AdmissionOutcome::Queued;
    if (aq.q.size() >= cfg_.admission_depth &&
        cfg_.shed_policy != ShedPolicy::Queue) {
        if (cfg_.shed_policy == ShedPolicy::Reject) {
            ++slo_.rejected;
            return {AdmissionOutcome::Rejected, kNoInstance};
        }
        // ShedOldest: the head's cold start is abandoned with it.
        aq.q.pop_front();
        if (aq.dispatch_event != 0) {
            eq_.cancel(aq.dispatch_event);
            aq.dispatch_event = 0;
        }
        ++slo_.shed;
        outcome = AdmissionOutcome::Shed;
    }
    aq.q.push_back(QueuedRequest{eq_.now(), service_time});
    ++slo_.queued;
    if (aq.dispatch_event == 0)
        armDispatch(svc);
    return {outcome, kNoInstance};
}

std::size_t
Orchestrator::admissionBacklog(ServiceId service) const
{
    EAAO_ASSERT(service < services_.size(), "bad service ", service);
    return admission_[service].q.size();
}

double
Orchestrator::startupEstimateS(const ServiceRecord &svc) const
{
    double startup = svc.env == ExecEnv::Gen1
                         ? cfg_.startup_billable_s_gen1
                         : cfg_.startup_billable_s_gen2;
    // Creation slows as the service nears the 1000-instance limit
    // (the paper launched 800 per burst to dodge exactly this).
    const std::size_t svc_live = svc.active.size() + svc.idle.size();
    if (svc_live > cfg_.creation_slowdown_threshold) {
        const double excess = static_cast<double>(
            svc_live - cfg_.creation_slowdown_threshold);
        startup *= 1.0 + cfg_.creation_slowdown_factor * excess / 200.0;
    }
    return startup;
}

void
Orchestrator::armDispatch(ServiceRecord &svc)
{
    AdmissionQueue &aq = admission_[svc.id];
    EAAO_ASSERT(!aq.q.empty(), "arming dispatch on an empty queue");
    const ServiceId sid = svc.id;
    aq.dispatch_event = eq_.scheduleAfter(
        sim::Duration::fromSecondsF(startupEstimateS(svc)),
        sim::EventTag{kEventTagDispatch, sid},
        [this, sid] { dispatchQueued(sid); });
}

void
Orchestrator::faultRearmDispatchTimers()
{
    // Planted fault 6: the "restored" dispatch timers are re-armed
    // from the base startup estimate as if their cold starts began
    // right now — the creation-slowdown term and the wait already
    // served both evaporate. Only ShardedPlatform::appendOps (the
    // time-travel fork path) calls this, so straight replays of the
    // same script are unperturbed and only the fork oracles can see
    // the divergence. See docs/testing.md.
    for (ServiceRecord &svc : services_) {
        AdmissionQueue &aq = admission_[svc.id];
        if (aq.dispatch_event == 0)
            continue;
        eq_.cancel(aq.dispatch_event);
        const double base = svc.env == ExecEnv::Gen1
                                ? cfg_.startup_billable_s_gen1
                                : cfg_.startup_billable_s_gen2;
        const ServiceId sid = svc.id;
        aq.dispatch_event = eq_.scheduleAfter(
            sim::Duration::fromSecondsF(base),
            sim::EventTag{kEventTagDispatch, sid},
            [this, sid] { dispatchQueued(sid); });
    }
}

void
Orchestrator::dispatchQueued(ServiceId service)
{
    AdmissionQueue &aq = admission_[service];
    aq.dispatch_event = 0; // this timer just fired
    if (aq.q.empty())
        return;
    ServiceRecord &svc = services_[service];
    const QueuedRequest qr = aq.q.front();
    aq.q.pop_front();
    // Prefer warm capacity that appeared while the head waited; fall
    // back to materializing the instance whose cold start just ended.
    serveQueued(svc, qr, findWarmTarget(svc));
    if (!aq.q.empty())
        armDispatch(svc);
}

void
Orchestrator::maybeDispatchQueued(ServiceRecord &svc)
{
    AdmissionQueue &aq = admission_[svc.id];
    while (!aq.q.empty()) {
        InstanceRecord *target = findWarmTarget(svc);
        if (target == nullptr)
            break;
        const QueuedRequest qr = aq.q.front();
        aq.q.pop_front();
        if (aq.dispatch_event != 0) {
            eq_.cancel(aq.dispatch_event);
            aq.dispatch_event = 0;
        }
        serveQueued(svc, qr, target);
    }
    // The new head (if any) starts its own cold-start clock.
    if (!aq.q.empty() && aq.dispatch_event == 0)
        armDispatch(svc);
}

void
Orchestrator::serveQueued(ServiceRecord &svc, const QueuedRequest &qr,
                          InstanceRecord *target)
{
    if (target == nullptr) {
        const std::uint32_t h = hotness(svc);
        noteRequestCreation(svc);
        target = &instances_[createInstance(svc, h)];
    }
    const double wait_s = (eq_.now() - qr.enqueued_at).secondsF();
    const double latency_s = wait_s + qr.service_time.secondsF();
    ++slo_.dispatched;
    slo_.cold_wait_s.observe(wait_s);
    slo_.latency_s.observe(latency_s);
    EAAO_OBS_OBSERVE(h_cold_wait_s_, wait_s);
    EAAO_OBS_OBSERVE(h_request_latency_s_, latency_s);
    occupy(svc, *target, qr.service_time);
}

void
Orchestrator::completeRequest(InstanceId id)
{
    InstanceRecord &inst = instances_[id];
    if (inst.state == InstanceState::Terminated)
        return; // instance died with the request in flight
    EAAO_ASSERT(inst.in_flight > 0, "completion without request");
    --inst.in_flight;
    if (inst.in_flight > 0 || inst.state != InstanceState::Active) {
        if (inst.state == InstanceState::Active)
            routing_.reindex(id, inst.in_flight);
        if (!admission_[inst.service].q.empty())
            maybeDispatchQueued(services_[inst.service]);
        return;
    }
    // Last request done: the instance releases its CPU and idles.
    ServiceRecord &svc = services_[inst.service];
    auto &act = svc.active;
    const auto it = std::find(act.begin(), act.end(), id);
    EAAO_ASSERT(it != act.end(), "active instance missing from list");
    act.erase(it);
    routing_.remove(id);
    settleActiveTime(inst);
    inst.state = InstanceState::Idle;
    inst.state_since = eq_.now();
    svc.idle.push_back(id);
    scheduleReap(inst);
    if (!admission_[svc.id].q.empty())
        maybeDispatchQueued(svc);
}

void
Orchestrator::noteRequestCreation(ServiceRecord &svc)
{
    // Aggregate request-driven scale-out into the same demand signal
    // launches produce: >= hot_burst_min creations within 5 minutes
    // count as one high-demand burst.
    const sim::SimTime now = eq_.now();
    svc.request_creations.push_back(now);
    const sim::SimTime cutoff = now - sim::Duration::minutes(5);
    while (!svc.request_creations.empty() &&
           svc.request_creations.front() < cutoff) {
        svc.request_creations.pop_front();
    }
    if (svc.request_creations.size() >= cfg_.hot_burst_min) {
        svc.bursts.emplace_back(
            now, static_cast<std::uint32_t>(
                     svc.request_creations.size()));
        svc.request_creations.clear();
    }
}

InstanceId
Orchestrator::restartInstance(InstanceId id)
{
    EAAO_ASSERT(id < instances_.size(), "bad instance ", id);
    InstanceRecord &old_inst = instances_[id];
    EAAO_ASSERT(old_inst.state != InstanceState::Terminated,
                "restarting a terminated instance");
    ServiceRecord &svc = services_[old_inst.service];
    const bool was_active = old_inst.state == InstanceState::Active;
    if (!was_active) {
        auto &idle = svc.idle;
        idle.erase(std::find(idle.begin(), idle.end(), id));
    }
    terminate(old_inst);
    const std::uint32_t h = hotness(svc);
    const InstanceId fresh = createInstance(svc, h);
    if (!was_active) {
        // createInstance places the replacement on the active list; an
        // idle predecessor yields an idle replacement.
        InstanceRecord &inst = instances_[fresh];
        auto &act = svc.active;
        act.erase(std::find(act.begin(), act.end(), fresh));
        routing_.remove(fresh);
        settleActiveTime(inst);
        inst.state = InstanceState::Idle;
        inst.state_since = eq_.now();
        svc.idle.push_back(fresh);
        scheduleReap(inst);
    }
    return fresh;
}

const InstanceRecord &
Orchestrator::instance(InstanceId id) const
{
    EAAO_ASSERT(id < instances_.size(), "bad instance ", id);
    return instances_[id];
}

const ServiceRecord &
Orchestrator::service(ServiceId id) const
{
    EAAO_ASSERT(id < services_.size(), "bad service ", id);
    return services_[id];
}

const AccountRecord &
Orchestrator::account(AccountId id) const
{
    EAAO_ASSERT(id < accounts_.size(), "bad account ", id);
    return accounts_[id];
}

double
Orchestrator::accountSpendUsd(AccountId id) const
{
    EAAO_ASSERT(id < accounts_.size(), "bad account ", id);
    double usd = accounts_[id].spend_usd;
    // Add the bill still running on currently-active instances. The
    // account's active set is kept sorted by instance id, so the sum
    // visits the same instances in the same order as a full table
    // scan — identical floating-point result.
    for (const InstanceId iid : acct_active_[id]) {
        const InstanceRecord &inst = instances_[iid];
        const double s = (eq_.now() - inst.state_since).secondsF();
        usd += s * pricing_.usdPerActiveSecond(inst.size);
    }
    return usd;
}

InstanceId
Orchestrator::createInstance(ServiceRecord &svc, std::uint32_t h)
{
    AccountRecord &acct = accounts_[svc.account];
    PlacementReason reason = PlacementReason::ColdBase;
    const hw::HostId host = pickHost(svc, acct, h, reason);

    InstanceRecord inst;
    inst.id = static_cast<InstanceId>(instances_.size());
    inst.service = svc.id;
    inst.account = svc.account;
    inst.host = host;
    inst.size = svc.size;
    inst.env = svc.env;
    inst.state = InstanceState::Active;
    inst.created_at = eq_.now();
    inst.state_since = eq_.now();
    if (svc.env == ExecEnv::Gen2) {
        // TSC offsetting: the hypervisor snapshots the host TSC at VM
        // boot so the guest sees a counter that starts near zero.
        inst.vm_tsc_offset = fleet_.host(host).tsc().idealRead(eq_.now());
    }

    // Startup time is billable (creations dominate the attack cost).
    const double startup = startupEstimateS(svc);
    inst.active_seconds += startup;
    acct.spend_usd += startup * pricing_.usdPerActiveSecond(inst.size);

    host_load_.add(host, inst.size.vcpus, inst.size.memory_gb);
    const std::uint32_t acct_on_host = ++acct_load_[host][inst.account];
    ++acct.live_count;
    base_index_[inst.account].noteLoad(host, acct_on_host);
    ++svc_host_load_[inst.service][host];

    svc.active.push_back(inst.id);
    noteActivated(svc, inst);
    instances_.push_back(inst);
    if (trace_ != nullptr) {
        trace_->record(PlacementEvent{eq_.now(), inst.id, svc.id,
                                      inst.account, host, reason});
    }
    EAAO_OBS_COUNT(c_placements_[static_cast<std::size_t>(reason)], 1);
    EAAO_OBS_OBSERVE(h_cold_start_s_, startup);
    EAAO_OBS_OBSERVE(h_instances_per_host_,
                     static_cast<double>(acct_on_host));
    EAAO_OBS_INSTANT(obs_, "instance.create", "placement", eq_.now(),
                     {obs::TraceArg::u64("instance", inst.id),
                      obs::TraceArg::u64("service", svc.id),
                      obs::TraceArg::u64("account", svc.account),
                      obs::TraceArg::u64("host", host),
                      obs::TraceArg::str("reason", toString(reason)),
                      obs::TraceArg::f64("cold_start_s", startup)});
    return inst.id;
}

hw::HostId
Orchestrator::pickHost(const ServiceRecord &svc, const AccountRecord &acct,
                       std::uint32_t h, PlacementReason &reason) const
{
    if (h > 0) {
        // Hot service: the load balancer relieves the base hosts by
        // spreading new instances over helper hosts as well (Obs 5).
        if (auto host = pickHelperHost(svc, acct, h)) {
            reason = PlacementReason::HotHelper;
            return *host;
        }
        if (auto host = pickBaseHost(svc, acct)) {
            reason = PlacementReason::ColdBase;
            return *host;
        }
    } else {
        // Dynamic data centers leak a fraction of cold placements off
        // the base hosts (us-central1, §5.1/§5.2).
        if (profile_.cold_spill_fraction > 0.0 &&
            rng_.bernoulli(profile_.cold_spill_fraction)) {
            if (auto host = pickSpillHost(svc)) {
                reason = PlacementReason::ColdSpill;
                return *host;
            }
        }
        if (auto host = pickBaseHost(svc, acct)) {
            reason = PlacementReason::ColdBase;
            return *host;
        }
        // Cold overflow: demand beyond the home shard's capacity spills
        // into the helper layer.
        if (auto host = pickHelperHost(svc, acct, 1)) {
            reason = PlacementReason::ColdOverflow;
            return *host;
        }
    }
    EAAO_FATAL("data center out of capacity for service ", svc.id);
}

std::optional<hw::HostId>
Orchestrator::pickBaseHost(const ServiceRecord &svc,
                           const AccountRecord &acct) const
{
    const auto &order = acct.base_order;
    if (order.empty())
        return std::nullopt;

    // Demand-sized prefix: spread the account's live instances over
    // ceil(demand / spread_target) base hosts (Obs 1: ~10.7 per host).
    auto prefix = static_cast<std::size_t>(std::ceil(
        static_cast<double>(acct.live_count + 1) / cfg_.spread_target));
    prefix = std::clamp<std::size_t>(prefix, 1, order.size());
    if (cfg_.fault_injection == 2 && prefix > 1)
        --prefix; // injected bug (mutation self-test): prefix short by 1

    // The min-view's (load, position) key makes its argmin the first
    // prefix host carrying the minimal load — the host a linear scan's
    // first-strict-improvement rule selects.
    const PlacementMinIndex &index = base_index_[acct.id];
    while (true) {
        const auto host = index.pickMin(
            order, prefix,
            [&](hw::HostId hid) { return hasCapacity(hid, svc.size); });
        if (host)
            return host;
        if (prefix == order.size())
            return std::nullopt; // home shard is full
        prefix = std::min(prefix * 2, order.size());
    }
}

std::optional<hw::HostId>
Orchestrator::pickHelperHost(const ServiceRecord &svc,
                             const AccountRecord &acct,
                             std::uint32_t h) const
{
    const auto &helpers = svc.helper_order;
    if (helpers.empty())
        return std::nullopt;

    // Demand-sized base prefix (the load balancer relieves these hosts
    // but keeps using them)...
    auto base_prefix = static_cast<std::size_t>(std::ceil(
        static_cast<double>(acct.live_count + 1) / cfg_.spread_target));
    base_prefix =
        std::clamp<std::size_t>(base_prefix, 1, acct.base_order.size());
    // ...plus a helper prefix that grows with hotness and saturates.
    auto helper_prefix = static_cast<std::size_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(h) *
                                    profile_.helper_chunk,
                                helpers.size()));

    // This service's live instances per host.
    const std::uint32_t *load = svc_host_load_[svc.id].data();

    while (true) {
        const hw::HostId *best = nullptr;
        std::uint32_t best_load = 0;
        auto consider = [&](const hw::HostId &hid) {
            if (!hasCapacity(hid, svc.size))
                return;
            if (best == nullptr || load[hid] < best_load) {
                best = &hid;
                best_load = load[hid];
            }
        };
        for (std::size_t i = 0; i < base_prefix; ++i)
            consider(acct.base_order[i]);
        for (std::size_t i = 0; i < helper_prefix; ++i)
            consider(helpers[i]);
        if (best != nullptr)
            return *best;
        if (helper_prefix == helpers.size())
            return std::nullopt;
        helper_prefix = std::min(helper_prefix * 2, helpers.size());
    }
}

std::optional<hw::HostId>
Orchestrator::pickSpillHost(const ServiceRecord &svc) const
{
    // Leaked cold placements go to a small, service-specific random
    // set of hosts (NOT the popular helper layer): leaks of different
    // accounts therefore almost never collide, matching the paper's 0%
    // naive cross-account result in us-central1 — while a victim's own
    // leaks escape a same-shard attacker (the 81% case).
    const auto &order = svc.spill_order;
    if (order.empty())
        return std::nullopt;

    const double live =
        static_cast<double>(svc.active.size() + svc.idle.size());
    auto prefix = static_cast<std::size_t>(std::ceil(
        (live * profile_.cold_spill_fraction + 1.0) /
        cfg_.spread_target));
    prefix = std::clamp<std::size_t>(prefix, 1, order.size());

    const std::uint32_t *load = svc_host_load_[svc.id].data();

    while (true) {
        const hw::HostId *best = nullptr;
        std::uint32_t best_load = 0;
        for (std::size_t i = 0; i < prefix; ++i) {
            const hw::HostId hid = order[i];
            if (!hasCapacity(hid, svc.size))
                continue;
            if (best == nullptr || load[hid] < best_load) {
                best = &order[i];
                best_load = load[hid];
            }
        }
        if (best != nullptr)
            return *best;
        if (prefix == order.size())
            return std::nullopt;
        prefix = std::min(prefix * 2, order.size());
    }
}

void
Orchestrator::scheduleReap(InstanceRecord &inst)
{
    // Idle lifetime: a ~2-minute hold, then an exponential tail, capped
    // at the documented 15-minute maximum (Fig. 6 / Obs 2).
    double tail_s = rng_.exponential(cfg_.idle_reap_mean_s);
    const double max_tail_s =
        (cfg_.idle_max - cfg_.idle_hold).secondsF();
    tail_s = std::min(tail_s, max_tail_s);
    const sim::Duration delay =
        cfg_.idle_hold + sim::Duration::fromSecondsF(tail_s);
    const InstanceId id = inst.id;
    inst.reap_event = eq_.scheduleAfter(
        delay, sim::EventTag{kEventTagReap, id}, [this, id] { reap(id); });
}

void
Orchestrator::reap(InstanceId id)
{
    InstanceRecord &inst = instances_[id];
    inst.reap_event = 0;
    if (inst.state != InstanceState::Idle)
        return;
    ServiceRecord &svc = services_[inst.service];
    auto &idle = svc.idle;
    idle.erase(std::find(idle.begin(), idle.end(), id));
    EAAO_OBS_COUNT(c_reaps_, 1);
    EAAO_OBS_INSTANT(
        obs_, "instance.reap", "lifecycle", eq_.now(),
        {obs::TraceArg::u64("instance", id),
         obs::TraceArg::f64("idle_s",
                            (eq_.now() - inst.state_since).secondsF())});
    terminate(inst);
}

void
Orchestrator::terminate(InstanceRecord &inst)
{
    EAAO_ASSERT(inst.state != InstanceState::Terminated,
                "double termination");
    settleActiveTime(inst);
    if (inst.reap_event != 0) {
        eq_.cancel(inst.reap_event);
        inst.reap_event = 0;
    }
    ServiceRecord &svc = services_[inst.service];
    if (inst.state == InstanceState::Active) {
        auto &act = svc.active;
        const auto it = std::find(act.begin(), act.end(), inst.id);
        if (it != act.end()) {
            act.erase(it);
            routing_.remove(inst.id);
        }
    }
    // Callers handling Idle instances remove them from svc.idle.

    AccountRecord &acct = accounts_[inst.account];
    host_load_.sub(inst.host, inst.size.vcpus, inst.size.memory_gb);
    auto &acct_loads = acct_load_[inst.host];
    const std::uint32_t acct_on_host = --acct_loads[inst.account];
    if (acct_on_host == 0)
        acct_loads.erase(inst.account);
    base_index_[inst.account].noteLoad(inst.host, acct_on_host);
    --svc_host_load_[inst.service][inst.host];
    EAAO_ASSERT(acct.live_count > 0, "live-count underflow");
    --acct.live_count;

    inst.state = InstanceState::Terminated;
    inst.state_since = eq_.now();
    inst.terminated_at = eq_.now();
    inst.in_flight = 0; // in-flight requests die with the instance

    EAAO_OBS_SPAN(obs_, "instance", "lifecycle", inst.created_at, eq_.now(),
                  {obs::TraceArg::u64("instance", inst.id),
                   obs::TraceArg::u64("service", inst.service),
                   obs::TraceArg::u64("account", inst.account),
                   obs::TraceArg::u64("host", inst.host)});
}

void
Orchestrator::settleActiveTime(InstanceRecord &inst)
{
    if (inst.state != InstanceState::Active)
        return;
    const double s = (eq_.now() - inst.state_since).secondsF();
    inst.active_seconds += s;
    accounts_[inst.account].spend_usd +=
        s * pricing_.usdPerActiveSecond(inst.size);
    // Every transition out of Active settles here, so this is the one
    // place the account's active set needs maintenance on exit.
    auto &act = acct_active_[inst.account];
    const auto it = std::lower_bound(act.begin(), act.end(), inst.id);
    EAAO_ASSERT(it != act.end() && *it == inst.id,
                "active set out of sync for instance ", inst.id);
    act.erase(it);
}

void
Orchestrator::noteActivated(ServiceRecord &svc, InstanceRecord &inst)
{
    inst.route_seq = routing_.add(svc.id, inst.id, inst.in_flight);
    auto &act = acct_active_[inst.account];
    act.insert(std::lower_bound(act.begin(), act.end(), inst.id),
               inst.id);
}

void
Orchestrator::rebuildBaseIndex(const AccountRecord &acct)
{
    base_index_[acct.id].rebuild(
        acct.base_order, fleet_.size(), [&](hw::HostId hid) {
            const auto &loads = acct_load_[hid];
            const auto it = loads.find(acct.id);
            return it == loads.end() ? 0u : it->second;
        });
}

bool
Orchestrator::hasCapacity(hw::HostId host, const ContainerSize &size) const
{
    const hw::HostMachine &machine = fleet_.host(host);
    const double usable_vcpus = static_cast<double>(machine.vcpus()) *
                                cfg_.host_usable_fraction;
    const double usable_mem_gb =
        machine.memoryGb() * cfg_.host_usable_memory_fraction;
    double used_vcpus = host_load_.vcpus(host);
    double used_mem_gb = host_load_.memGb(host);
    if (committed_load_ != nullptr) {
        used_vcpus += committed_load_->vcpus(host);
        used_mem_gb += committed_load_->memGb(host);
    }
    return used_vcpus + size.vcpus <= usable_vcpus &&
           used_mem_gb + size.memory_gb <= usable_mem_gb;
}

void
Orchestrator::attachCommittedLoad(const support::HostLoadSoA *committed)
{
    committed_load_ = committed;
    // Switching modes resets the local table: in sharded mode it holds
    // only the lane's not-yet-folded delta, with touch tracking on so
    // the barrier can drain it.
    host_load_.assign(fleet_.size(), committed != nullptr);
}

std::vector<hw::HostId>
Orchestrator::buildBaseOrder(const AccountRecord &acct, double jitter,
                             sim::Rng &rng) const
{
    const auto &members = fleet_.shardHosts(acct.shard);
    struct Keyed
    {
        double key;
        hw::HostId host;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(members.size());
    for (const hw::HostId hid : members) {
        const double key = static_cast<double>(fleet_.popularityRank(hid)) +
                           (jitter > 0.0 ? rng.normal(0.0, jitter) : 0.0);
        keyed.push_back({key, hid});
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const Keyed &a, const Keyed &b) {
                  if (a.key != b.key)
                      return a.key < b.key;
                  return a.host < b.host;
              });
    std::vector<hw::HostId> order;
    order.reserve(keyed.size());
    for (const auto &k : keyed)
        order.push_back(k.host);
    return order;
}

std::vector<hw::HostId>
Orchestrator::buildHelperOrder(std::uint32_t home_shard,
                               std::uint64_t seed) const
{
    // Helper candidates: every host outside the home shard, ordered by
    // within-shard popularity with per-service jitter. The front of
    // every helper list thus interleaves the popular hosts of all
    // shards (which is what makes the optimized strategy cover victim
    // base hosts so well), while the jitter keeps helper sets of
    // different services overlapping-but-distinct (Observation 6).
    sim::Rng stream(seed);
    struct Keyed
    {
        double key;
        hw::HostId host;
    };
    std::vector<Keyed> keyed;
    for (hw::HostId hid = 0; hid < fleet_.size(); ++hid) {
        // Co-location-resistant scheduling flips the candidate set:
        // helpers may only come from the account's own shard.
        if (cfg_.isolate_accounts
                ? fleet_.shardOf(hid) != home_shard
                : fleet_.shardOf(hid) == home_shard)
            continue;
        const double key =
            static_cast<double>(fleet_.popularityRank(hid)) +
            stream.normal(0.0, profile_.helper_order_jitter);
        keyed.push_back({key, hid});
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const Keyed &a, const Keyed &b) {
                  if (a.key != b.key)
                      return a.key < b.key;
                  return a.host < b.host;
              });
    std::vector<hw::HostId> out;
    out.reserve(keyed.size());
    for (const auto &k : keyed)
        out.push_back(k.host);
    return out;
}

std::vector<hw::HostId>
Orchestrator::buildSpillOrder(std::uint32_t home_shard,
                              std::uint64_t seed) const
{
    std::vector<hw::HostId> out;
    for (hw::HostId hid = 0; hid < fleet_.size(); ++hid) {
        const bool home = fleet_.shardOf(hid) == home_shard;
        if (cfg_.isolate_accounts ? home : !home)
            out.push_back(hid);
    }
    sim::Rng stream(seed);
    for (std::size_t i = out.size(); i > 1; --i) {
        const std::size_t j =
            stream.uniformInt(static_cast<std::uint64_t>(i));
        std::swap(out[i - 1], out[j]);
    }
    return out;
}

sim::EventQueue::Callback
Orchestrator::rebindEvent(std::uint32_t kind, std::uint64_t arg)
{
    const InstanceId id = arg;
    switch (kind) {
    case kEventTagComplete:
        return sim::EventQueue::Callback(
            [this, id] { completeRequest(id); });
    case kEventTagReap:
        return sim::EventQueue::Callback([this, id] { reap(id); });
    case kEventTagDispatch: {
        const ServiceId sid = static_cast<ServiceId>(arg);
        return sim::EventQueue::Callback(
            [this, sid] { dispatchQueued(sid); });
    }
    default:
        EAAO_FATAL("unknown event tag kind ", kind);
    }
}

void
Orchestrator::rebuildDerivedState()
{
    // Restores bypass deployService; queue contents (if any) are
    // restored separately by the snapshotter after this runs.
    admission_.resize(services_.size());
    acct_load_.assign(fleet_.size(),
                      support::SmallFlatMap<AccountId, std::uint32_t>{});
    svc_host_load_.assign(services_.size(),
                          std::vector<std::uint32_t>(fleet_.size(), 0u));
    acct_active_.assign(accounts_.size(), {});
    // Keep the restored activation counter; re-key every Active
    // instance with its original route_seq.
    routing_.resetForRestore(routing_.nextSeq());
    for (const InstanceRecord &inst : instances_) {
        if (inst.state == InstanceState::Terminated)
            continue;
        ++acct_load_[inst.host][inst.account];
        ++svc_host_load_[inst.service][inst.host];
        if (inst.state == InstanceState::Active) {
            routing_.insertRestored(inst.service, inst.id, inst.in_flight,
                                    inst.route_seq);
            // instances_ is id-ordered, so pushes arrive sorted.
            acct_active_[inst.account].push_back(inst.id);
        }
    }
    base_index_.clear();
    base_index_.resize(accounts_.size());
    for (const AccountRecord &acct : accounts_)
        rebuildBaseIndex(acct);
}

void
Orchestrator::refreshPreferences(ServiceRecord &svc, AccountRecord &acct)
{
    sim::Rng stream = rng_.fork(sim::mix64(eq_.now().ns()) ^
                                (svc.id * 0x9e3779b97f4a7c15ULL));
    if (profile_.per_launch_jitter > 0.0) {
        // Dynamic placement (us-central1): re-jitter the base order and
        // regenerate the helper permutation each launch.
        acct.base_order =
            buildBaseOrder(acct, profile_.per_launch_jitter, stream);
        rebuildBaseIndex(acct);
        // Helper-set churn: fraction of the previous helper prefix (the
        // ~50 hosts a hot service actually reaches) absent from the new
        // one. Pure observation — computed only when a registry is on.
        const std::vector<hw::HostId> prev_helpers =
            h_helper_churn_ != nullptr ? svc.helper_order
                                       : std::vector<hw::HostId>{};
        svc.helper_seed = stream();
        svc.helper_order = buildHelperOrder(acct.shard, svc.helper_seed);
        svc.spill_order =
            buildSpillOrder(acct.shard, sim::mix64(svc.helper_seed));
        if (h_helper_churn_ != nullptr && !prev_helpers.empty()) {
            const std::size_t prefix = std::min<std::size_t>(
                {50, prev_helpers.size(), svc.helper_order.size()});
            if (prefix > 0) {
                std::size_t kept = 0;
                const auto new_end = svc.helper_order.begin() +
                                     static_cast<std::ptrdiff_t>(prefix);
                for (std::size_t i = 0; i < prefix; ++i) {
                    kept += std::find(svc.helper_order.begin(), new_end,
                                      prev_helpers[i]) != new_end;
                }
                h_helper_churn_->observe(
                    1.0 - static_cast<double>(kept) /
                              static_cast<double>(prefix));
            }
        }
    } else if (profile_.base_launch_jitter > 0.0) {
        // Static data centers still rotate a few borderline hosts in
        // and out of the base prefix between launches (Fig. 7).
        acct.base_order =
            buildBaseOrder(acct, profile_.base_launch_jitter, stream);
        rebuildBaseIndex(acct);
    }
}

} // namespace eaao::faas
