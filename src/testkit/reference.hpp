/**
 * @file
 * Brute-force references for the orchestrator's indexed decisions,
 * recomputed from its public records only (see docs/performance.md
 * for the invariants each index must keep):
 *
 *  - route: the first Active instance, in active-list order, with the
 *    lowest in_flight below the concurrency limit; else the most
 *    recently idled instance; else a cold start;
 *  - cold-base host: the first host of the account's demand-sized base
 *    prefix with room and the fewest instances of the account, the
 *    prefix doubling until a host fits;
 *  - helper host (hot placements and cold overflow): the first host,
 *    scanning the demand-sized base prefix and then the
 *    hotness-sized prefix of the service's full helper order, with
 *    room and the fewest instances of the service, the helper prefix
 *    doubling until a host fits;
 *  - spill host: the same scan over the live-sized prefix of the
 *    service's full spill order;
 *  - spend: settled spend plus the running bill of every Active
 *    instance of the account, summed over the instance table in id
 *    order (bit-exact).
 *
 * The helper and spill references rebuild the *full* orders from the
 * service's seed, so they also check that the prefix the orchestrator
 * keeps is the front of the order it stands for.
 */

#ifndef EAAO_TESTKIT_REFERENCE_HPP
#define EAAO_TESTKIT_REFERENCE_HPP

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faas/platform.hpp"
#include "faas/trace.hpp"

namespace eaao::testkit {

/** routeRequest's target right now; kNoInstance means a cold start. */
faas::InstanceId referenceWarmTarget(const faas::Platform &platform,
                                     faas::ServiceId service);

/**
 * The host a cold-base placement of @p created had to pick (nullopt:
 * no base host had room). Call it right after the synchronous call
 * that created the instance (connect, routeRequest, restartInstance)
 * returns: the live instances with a lower id are then exactly the
 * live set at that creation. Container sizes are dyadic, so the
 * capacity sums are exact in any order.
 */
std::optional<hw::HostId> referenceBaseHost(const faas::Platform &platform,
                                            faas::InstanceId created);

/**
 * The host a HotHelper (or, with @p hotness 1, a ColdOverflow)
 * placement of @p created had to pick, at the service hotness read
 * before the call that created it. Same calling rule as
 * referenceBaseHost.
 */
std::optional<hw::HostId> referenceHelperHost(const faas::Platform &platform,
                                              faas::InstanceId created,
                                              std::uint32_t hotness);

/** The host a ColdSpill placement of @p created had to pick. */
std::optional<hw::HostId> referenceSpillHost(const faas::Platform &platform,
                                             faas::InstanceId created);

/** A service's full helper order, rebuilt from its seed. */
std::vector<hw::HostId> referenceHelperOrder(const faas::Platform &platform,
                                             faas::ServiceId service);

/** A service's full spill order, rebuilt from its seed. */
std::vector<hw::HostId> referenceSpillOrder(const faas::Platform &platform,
                                            faas::ServiceId service);

/** A service's hotness level right now, from its burst record. */
std::uint32_t referenceHotness(const faas::Platform &platform,
                               faas::ServiceId service);

/** accountSpendUsd as a full instance-table sum. */
double referenceSpendUsd(const faas::Platform &platform,
                         faas::AccountId account);

/**
 * Makes a driver's decision calls and checks each against the
 * references, keeping the first mismatch (labelled by @p where).
 * @p trace must be attached to the orchestrator: its reasons say which
 * placement path each creation took.
 */
class ReferenceAudit
{
  public:
    ReferenceAudit(faas::Platform &platform, const faas::PlacementTrace &trace)
        : platform_(platform), trace_(trace)
    {
    }

    faas::InstanceId route(faas::ServiceId service,
                           sim::Duration service_time, std::string_view where);
    std::vector<faas::InstanceId> connect(faas::ServiceId service,
                                          std::uint32_t n,
                                          std::string_view where);
    faas::InstanceId restart(faas::InstanceId victim, std::string_view where);
    double spend(faas::AccountId account, std::string_view where);

    /** First mismatch as one line ("<where>: ..."); empty if none. */
    const std::string &mismatch() const { return mismatch_; }

  private:
    /**
     * Check the placements traced since @p trace_mark, made at service
     * hotness @p hotness.
     */
    void checkCreations(std::size_t trace_mark, std::uint32_t hotness,
                        std::string_view where);
    void fail(std::string_view where, const std::string &what);

    faas::Platform &platform_;
    const faas::PlacementTrace &trace_;
    std::string mismatch_;
};

} // namespace eaao::testkit

#endif // EAAO_TESTKIT_REFERENCE_HPP
