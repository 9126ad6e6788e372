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

    // The live set at the creation: every live instance with a lower id.
    const std::size_t hosts = platform.fleet().size();
    std::vector<double> vcpus(hosts, 0.0);
    std::vector<double> mem_gb(hosts, 0.0);
    std::vector<std::uint32_t> acct_load(hosts, 0);
    std::uint32_t acct_live = 0;
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
    }
    const auto fits = [&](hw::HostId hid) {
        const hw::HostMachine &m = platform.fleet().host(hid);
        const double usable_vcpus =
            static_cast<double>(m.vcpus()) * cfg.host_usable_fraction;
        return vcpus[hid] + inst.size.vcpus <= usable_vcpus &&
               mem_gb[hid] + inst.size.memory_gb <=
                   m.memoryGb() * cfg.host_usable_memory_fraction;
    };

    auto prefix = static_cast<std::size_t>(std::ceil(
        static_cast<double>(acct_live + 1) / cfg.spread_target));
    prefix = std::clamp<std::size_t>(prefix, 1, order.size());
    while (true) {
        std::optional<hw::HostId> best;
        for (std::size_t i = 0; i < prefix; ++i) {
            const hw::HostId hid = order[i];
            if (fits(hid) && (!best || acct_load[hid] < acct_load[*best]))
                best = hid;
        }
        if (best || prefix == order.size())
            return best;
        prefix = std::min(prefix * 2, order.size());
    }
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
    checkCreations(trace_mark, where);
    return got;
}

std::vector<faas::InstanceId>
ReferenceAudit::connect(faas::ServiceId service, std::uint32_t n,
                        std::string_view where)
{
    const std::size_t trace_mark = trace_.events().size();
    std::vector<faas::InstanceId> ids = platform_.connect(service, n);
    checkCreations(trace_mark, where);
    return ids;
}

faas::InstanceId
ReferenceAudit::restart(faas::InstanceId victim, std::string_view where)
{
    const std::size_t trace_mark = trace_.events().size();
    const faas::InstanceId fresh = platform_.restartInstance(victim);
    checkCreations(trace_mark, where);
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
ReferenceAudit::checkCreations(std::size_t trace_mark, std::string_view where)
{
    const std::vector<faas::PlacementEvent> &events = trace_.events();
    for (std::size_t i = trace_mark; i < events.size(); ++i) {
        const faas::PlacementEvent &e = events[i];
        if (e.reason != faas::PlacementReason::ColdBase)
            continue;
        const std::optional<hw::HostId> want =
            referenceBaseHost(platform_, e.instance);
        if (want != e.host) {
            fail(where, "instance " + std::to_string(e.instance) +
                            " cold-base placed on host " +
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
