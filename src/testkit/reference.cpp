/**
 * @file
 * Brute-force decision references and the audit that applies them.
 */

#include "testkit/reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace eaao::testkit {

faas::InstanceId
referenceWarmTarget(const faas::Platform &platform, faas::ServiceId service)
{
    const faas::Orchestrator &orch = platform.orchestrator();
    const faas::ServiceRecord &svc = orch.service(service);
    faas::InstanceId best = faas::kNoInstance;
    for (const faas::InstanceId id : svc.active) {
        const std::uint32_t load = orch.instance(id).in_flight;
        if (load < svc.max_concurrency &&
            (best == faas::kNoInstance || load < orch.instance(best).in_flight))
            best = id;
    }
    if (best == faas::kNoInstance && !svc.idle.empty())
        best = svc.idle.back();
    return best;
}

namespace {

/**
 * The live set at the creation of @p created: every live instance with
 * a lower id. Per host: capacity in use, and the instances of the
 * created instance's account and service.
 */
struct LiveSet
{
    const faas::Platform &platform;
    const faas::InstanceRecord &inst;
    std::vector<double> vcpus;
    std::vector<double> mem_gb;
    std::vector<std::uint32_t> acct_load;
    std::vector<std::uint32_t> svc_load;
    std::uint32_t acct_live = 0;
    std::uint32_t svc_live = 0;

    LiveSet(const faas::Platform &p, faas::InstanceId created)
        : platform(p), inst(p.orchestrator().instance(created)),
          vcpus(p.fleet().size(), 0.0), mem_gb(p.fleet().size(), 0.0),
          acct_load(p.fleet().size(), 0), svc_load(p.fleet().size(), 0)
    {
        const faas::Orchestrator &orch = p.orchestrator();
        for (faas::InstanceId id = 0; id < created; ++id) {
            const faas::InstanceRecord &other = orch.instance(id);
            if (other.state == faas::InstanceState::Terminated)
                continue;
            vcpus[other.host] += other.size.vcpus;
            mem_gb[other.host] += other.size.memory_gb;
            if (other.account == inst.account) {
                ++acct_load[other.host];
                ++acct_live;
            }
            if (other.service == inst.service) {
                ++svc_load[other.host];
                ++svc_live;
            }
        }
    }

    /** Room for one more of the created instance's size on @p hid. */
    bool
    fits(hw::HostId hid) const
    {
        const faas::OrchestratorConfig &cfg = platform.orchestrator().config();
        const hw::HostMachine &m = platform.fleet().host(hid);
        const double usable_vcpus =
            static_cast<double>(m.vcpus()) * cfg.host_usable_fraction;
        return vcpus[hid] + inst.size.vcpus <= usable_vcpus &&
               mem_gb[hid] + inst.size.memory_gb <=
                   m.memoryGb() * cfg.host_usable_memory_fraction;
    }
};

/** Is @p hid a helper/spill candidate for an account on @p shard? */
bool
offBase(const faas::Platform &platform, std::uint32_t shard, hw::HostId hid)
{
    const bool home = platform.fleet().shardOf(hid) == shard;
    return platform.orchestrator().config().isolate_accounts ? home : !home;
}

} // namespace

std::optional<hw::HostId>
referenceBaseHost(const faas::Platform &platform, faas::InstanceId created)
{
    const faas::Orchestrator &orch = platform.orchestrator();
    const faas::OrchestratorConfig &cfg = orch.config();
    const faas::InstanceRecord &inst = orch.instance(created);
    const std::vector<hw::HostId> &order =
        orch.account(inst.account).base_order;
    if (order.empty())
        return std::nullopt;

    const LiveSet live(platform, created);
    auto prefix = static_cast<std::size_t>(std::ceil(
        static_cast<double>(live.acct_live + 1) / cfg.spread_target));
    prefix = std::clamp<std::size_t>(prefix, 1, order.size());
    while (true) {
        std::optional<hw::HostId> best;
        for (std::size_t i = 0; i < prefix; ++i) {
            const hw::HostId hid = order[i];
            if (live.fits(hid) &&
                (!best || live.acct_load[hid] < live.acct_load[*best]))
                best = hid;
        }
        if (best || prefix == order.size())
            return best;
        prefix = std::min(prefix * 2, order.size());
    }
}

std::optional<hw::HostId>
referenceHelperHost(const faas::Platform &platform, faas::InstanceId created,
                    std::uint32_t hotness)
{
    const faas::Orchestrator &orch = platform.orchestrator();
    const faas::OrchestratorConfig &cfg = orch.config();
    const faas::InstanceRecord &inst = orch.instance(created);
    const std::vector<hw::HostId> &base =
        orch.account(inst.account).base_order;
    const std::vector<hw::HostId> helpers =
        referenceHelperOrder(platform, inst.service);
    if (helpers.empty())
        return std::nullopt;

    const LiveSet live(platform, created);
    auto base_prefix = static_cast<std::size_t>(std::ceil(
        static_cast<double>(live.acct_live + 1) / cfg.spread_target));
    base_prefix = std::clamp<std::size_t>(base_prefix, 1, base.size());
    auto helper_prefix = static_cast<std::size_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(hotness) * platform.profile().helper_chunk,
        helpers.size()));
    while (true) {
        std::optional<hw::HostId> best;
        const auto consider = [&](hw::HostId hid) {
            if (live.fits(hid) &&
                (!best || live.svc_load[hid] < live.svc_load[*best]))
                best = hid;
        };
        for (std::size_t i = 0; i < base_prefix; ++i)
            consider(base[i]);
        for (std::size_t i = 0; i < helper_prefix; ++i)
            consider(helpers[i]);
        if (best || helper_prefix == helpers.size())
            return best;
        helper_prefix = std::min(helper_prefix * 2, helpers.size());
    }
}

std::optional<hw::HostId>
referenceSpillHost(const faas::Platform &platform, faas::InstanceId created)
{
    const faas::OrchestratorConfig &cfg = platform.orchestrator().config();
    const faas::InstanceRecord &inst =
        platform.orchestrator().instance(created);
    const std::vector<hw::HostId> order =
        referenceSpillOrder(platform, inst.service);
    if (order.empty())
        return std::nullopt;

    const LiveSet live(platform, created);
    auto prefix = static_cast<std::size_t>(std::ceil(
        (static_cast<double>(live.svc_live) *
             platform.profile().cold_spill_fraction +
         1.0) /
        cfg.spread_target));
    prefix = std::clamp<std::size_t>(prefix, 1, order.size());
    while (true) {
        std::optional<hw::HostId> best;
        for (std::size_t i = 0; i < prefix; ++i) {
            const hw::HostId hid = order[i];
            if (live.fits(hid) &&
                (!best || live.svc_load[hid] < live.svc_load[*best]))
                best = hid;
        }
        if (best || prefix == order.size())
            return best;
        prefix = std::min(prefix * 2, order.size());
    }
}

std::vector<hw::HostId>
referenceHelperOrder(const faas::Platform &platform, faas::ServiceId service)
{
    const faas::Orchestrator &orch = platform.orchestrator();
    const faas::ServiceRecord &svc = orch.service(service);
    const std::uint32_t shard = orch.account(svc.account).shard;
    const faas::Fleet &fleet = platform.fleet();
    sim::Rng stream(svc.helper_seed);
    std::vector<std::pair<double, hw::HostId>> keyed;
    for (hw::HostId hid = 0; hid < fleet.size(); ++hid) {
        if (!offBase(platform, shard, hid))
            continue;
        keyed.emplace_back(
            static_cast<double>(fleet.popularityRank(hid)) +
                stream.normal(0.0, platform.profile().helper_order_jitter),
            hid);
    }
    std::sort(keyed.begin(), keyed.end()); // (key, host)
    std::vector<hw::HostId> out;
    for (const auto &k : keyed)
        out.push_back(k.second);
    return out;
}

std::vector<hw::HostId>
referenceSpillOrder(const faas::Platform &platform, faas::ServiceId service)
{
    const faas::Orchestrator &orch = platform.orchestrator();
    const faas::ServiceRecord &svc = orch.service(service);
    const std::uint32_t shard = orch.account(svc.account).shard;
    std::vector<hw::HostId> out;
    for (hw::HostId hid = 0; hid < platform.fleet().size(); ++hid) {
        if (offBase(platform, shard, hid))
            out.push_back(hid);
    }
    sim::Rng stream(sim::mix64(svc.helper_seed));
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[stream.uniformInt(std::uint64_t{i})]);
    return out;
}

std::uint32_t
referenceHotness(const faas::Platform &platform, faas::ServiceId service)
{
    const faas::OrchestratorConfig &cfg = platform.orchestrator().config();
    const sim::SimTime cutoff = platform.now() - cfg.demand_window;
    std::uint32_t h = 0;
    for (const auto &[when, n] :
         platform.orchestrator().service(service).bursts)
        h += when >= cutoff && n >= cfg.hot_burst_min ? 1 : 0;
    return std::min(h, cfg.hotness_cap);
}

double
referenceSpendUsd(const faas::Platform &platform, faas::AccountId account)
{
    const faas::Orchestrator &orch = platform.orchestrator();
    double usd = orch.account(account).spend_usd;
    for (faas::InstanceId id = 0; id < orch.instanceCount(); ++id) {
        const faas::InstanceRecord &inst = orch.instance(id);
        if (inst.account == account &&
            inst.state == faas::InstanceState::Active) {
            const double s = (platform.now() - inst.state_since).secondsF();
            usd += s * orch.pricing().usdPerActiveSecond(inst.size);
        }
    }
    return usd;
}

faas::InstanceId
ReferenceAudit::route(faas::ServiceId service, sim::Duration service_time,
                      std::string_view where)
{
    const faas::InstanceId want = referenceWarmTarget(platform_, service);
    const std::uint32_t hotness = referenceHotness(platform_, service);
    const std::size_t first_new = platform_.orchestrator().instanceCount();
    const std::size_t trace_mark = trace_.events().size();
    const faas::InstanceId got =
        platform_.orchestrator().routeRequest(service, service_time);
    if (want == faas::kNoInstance ? got < first_new : got != want) {
        fail(where, "routed to instance " + std::to_string(got) +
                        ", reference: " +
                        (want == faas::kNoInstance
                             ? std::string("a cold start")
                             : "instance " + std::to_string(want)));
    }
    checkCreations(trace_mark, hotness, where);
    return got;
}

std::vector<faas::InstanceId>
ReferenceAudit::connect(faas::ServiceId service, std::uint32_t n,
                        std::string_view where)
{
    const std::uint32_t hotness = referenceHotness(platform_, service);
    const std::size_t trace_mark = trace_.events().size();
    std::vector<faas::InstanceId> ids = platform_.connect(service, n);
    checkCreations(trace_mark, hotness, where);
    return ids;
}

faas::InstanceId
ReferenceAudit::restart(faas::InstanceId victim, std::string_view where)
{
    const std::uint32_t hotness = referenceHotness(
        platform_, platform_.orchestrator().instance(victim).service);
    const std::size_t trace_mark = trace_.events().size();
    const faas::InstanceId fresh = platform_.restartInstance(victim);
    checkCreations(trace_mark, hotness, where);
    return fresh;
}

double
ReferenceAudit::spend(faas::AccountId account, std::string_view where)
{
    const double got = platform_.accountSpendUsd(account);
    const double want = referenceSpendUsd(platform_, account);
    if (got != want) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "account %u spend %.17g USD, reference: %.17g USD",
                      static_cast<unsigned>(account), got, want);
        fail(where, buf);
    }
    return got;
}

void
ReferenceAudit::checkCreations(std::size_t trace_mark, std::uint32_t hotness,
                               std::string_view where)
{
    const std::vector<faas::PlacementEvent> &events = trace_.events();
    for (std::size_t i = trace_mark; i < events.size(); ++i) {
        const faas::PlacementEvent &e = events[i];
        std::optional<hw::HostId> want;
        switch (e.reason) {
        case faas::PlacementReason::ColdBase:
            want = referenceBaseHost(platform_, e.instance);
            break;
        case faas::PlacementReason::HotHelper:
            want = referenceHelperHost(platform_, e.instance, hotness);
            break;
        case faas::PlacementReason::ColdOverflow:
            want = referenceHelperHost(platform_, e.instance, 1);
            break;
        case faas::PlacementReason::ColdSpill:
            want = referenceSpillHost(platform_, e.instance);
            break;
        default:
            continue; // reuse: no placement decision
        }
        if (want != e.host) {
            fail(where, "instance " + std::to_string(e.instance) + " " +
                            toString(e.reason) + " placed on host " +
                            std::to_string(e.host) + ", reference: " +
                            (want ? "host " + std::to_string(*want)
                                  : std::string("no host with room")));
        }
    }
}

void
ReferenceAudit::fail(std::string_view where, const std::string &what)
{
    if (mismatch_.empty())
        mismatch_ = std::string(where) + ": " + what;
}

} // namespace eaao::testkit
