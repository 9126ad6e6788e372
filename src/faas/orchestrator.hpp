/**
 * @file
 * The FaaS orchestrator: container-instance lifecycle and placement.
 *
 * Implements the placement behaviours the paper reverse-engineered on
 * Cloud Run (Observations 1-6, Section 5.1):
 *
 *  - Obs 1: instances of a service spread near-uniformly over the hosts
 *    used (cold placement targets ~10.7 instances/host).
 *  - Obs 2: idle instances survive ~2 minutes untouched, then are reaped
 *    gradually; practically all are gone by ~12 minutes.
 *  - Obs 3/4: an account's instances prefer a stable set of *base hosts*
 *    in the account's home shard; different accounts get different base
 *    hosts (different shards, usually).
 *  - Obs 5: a service that saw high demand within the past ~30 minutes
 *    is "hot"; newly-created instances of a hot service are placed on
 *    *helper hosts* outside the base set, in growing chunks that
 *    saturate after ~3 hot launches.
 *  - Obs 6: helper lists are per-service, popularity-biased, and overlap
 *    across services.
 */

#ifndef EAAO_FAAS_ORCHESTRATOR_HPP
#define EAAO_FAAS_ORCHESTRATOR_HPP

#include <deque>
#include <optional>
#include <vector>

#include "faas/fleet.hpp"
#include "faas/placement_index.hpp"
#include "faas/routing_index.hpp"
#include "faas/trace.hpp"
#include "faas/pricing.hpp"
#include "faas/types.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "support/flat_map.hpp"
#include "support/soa.hpp"

namespace eaao::snap {
class Snapshotter;
} // namespace eaao::snap

namespace eaao::faas {

/**
 * Backpressure applied by admitRequest when a service's admission
 * queue is already at admission_depth. See docs/load-engine.md.
 */
enum class ShedPolicy : std::uint32_t
{
    Queue = 0,     //!< keep queueing (the depth is advisory)
    Reject = 1,    //!< drop the arriving request
    ShedOldest = 2 //!< drop the oldest queued request, admit the new one
};

/** Tunables of the orchestrator; defaults reproduce the paper's curves. */
struct OrchestratorConfig
{
    /** Target concurrent instances per host for cold spreading. */
    double spread_target = 10.7;

    /** Minimum burst size that counts toward service hotness. */
    std::uint32_t hot_burst_min = 100;

    /** Demand-window length for hotness (paper: ~30 minutes). */
    sim::Duration demand_window = sim::Duration::minutes(30);

    /** Hotness saturates after this many hot launches. */
    std::uint32_t hotness_cap = 3;

    /** Idle instances are never reaped before this age. */
    sim::Duration idle_hold = sim::Duration::minutes(2);

    /** Mean of the exponential reap delay after the hold, seconds. */
    double idle_reap_mean_s = 150.0;

    /** Hard upper bound on idle lifetime (paper: 15 minutes). */
    sim::Duration idle_max = sim::Duration::minutes(15);

    /** Fraction of a host's vcpus available to user containers. */
    double host_usable_fraction = 0.85;

    /** Fraction of a host's memory available to user containers. */
    double host_usable_memory_fraction = 0.85;

    /**
     * Creation slows as a service approaches the 1000-instance limit
     * (the paper's reason for launching 800): startup time scales by
     * 1 + slowdown_factor * excess/200 beyond this threshold.
     */
    std::uint32_t creation_slowdown_threshold = 800;
    double creation_slowdown_factor = 3.0;

    /** Billable startup seconds per created Gen 1 instance. */
    double startup_billable_s_gen1 = 1.5;

    /** Billable startup seconds per created Gen 2 instance (slower). */
    double startup_billable_s_gen2 = 4.0;

    /**
     * Open-loop admission control (admitRequest). A request that finds
     * no warm capacity waits out one cold start in a per-service FIFO
     * admission queue instead of materializing an instance instantly;
     * admission_depth bounds that queue and shed_policy picks what to
     * do with the overflow. routeRequest ignores both — the closed-loop
     * drivers keep their instant-scale-out semantics.
     */
    std::uint32_t admission_depth = 64;
    ShedPolicy shed_policy = ShedPolicy::Queue;

    /**
     * Co-location-resistant scheduling (Section 6, after Azar et al.):
     * confine each account — including its load-balancing helper
     * placements — to its home shard. Cross-account co-location
     * becomes impossible at the price of fleet fragmentation (a hot
     * service can no longer relieve pressure DC-wide).
     */
    bool isolate_accounts = false;

    /**
     * Deliberate bug injection for the scenario fuzzer's mutation
     * self-test (`tools/fuzz_scenarios --inject-fault N`; see
     * docs/testing.md). Modes 1 and 2 perturb the indexed decision
     * paths, so the `reference` oracle — testkit's brute-force
     * recomputation of each decision (src/testkit/reference.hpp) — is
     * the one that must catch them. 0 = off; 1 = routing takes the
     * most recently activated spare instance instead of the
     * least-loaded one; 2 = cold placement's demand prefix is one
     * host short.
     *
     * Modes 3 and 4 live in the *sharded* cross-lane exchange path
     * (faas::ShardedPlatform; see docs/sharding.md): 3 = window
     * barrier off by one at the boundary, 4 = dropped cross-lane
     * capacity exchange. The orchestrator itself ignores them — the
     * shard-equality oracle is the one that must catch them.
     *
     * Mode 5 lives in the checkpoint restore path
     * (snap::Snapshotter; see docs/checkpoint.md): the first restored
     * lane with a non-empty capacity-delta touch list loses its vcpus
     * delta column. The snapshot oracle is the one that must catch it.
     *
     * Mode 6 lives in the time-travel fork path
     * (ShardedPlatform::appendOps; see docs/testing.md): when a
     * forked suffix is appended to a restored run, every armed
     * admission dispatch timer is re-armed from its service's *stale
     * base* startup estimate — dropping the creation-slowdown term
     * and the wait the queue head has already accrued. Straight
     * replays of the same script never call appendOps, so only the
     * fork oracles (prefix-consistency / fork-determinism) can catch
     * it.
     */
    std::uint32_t fault_injection = 0;
};

/** One container instance's bookkeeping record. */
struct InstanceRecord
{
    InstanceId id = kNoInstance;
    ServiceId service = 0;
    AccountId account = 0;
    hw::HostId host = 0;
    ContainerSize size = sizes::kSmall;
    ExecEnv env = ExecEnv::Gen1;
    InstanceState state = InstanceState::Active;
    std::uint32_t in_flight = 0; //!< requests currently executing
    sim::SimTime created_at;
    sim::SimTime state_since;
    double active_seconds = 0.0;            //!< billed active time
    std::uint64_t vm_tsc_offset = 0;        //!< Gen 2 TSC offset
    std::optional<sim::SimTime> terminated_at;
    sim::EventId reap_event = 0;
    std::uint64_t route_seq = 0; //!< routing-index key while Active
};

/** A deployed service (function). */
struct ServiceRecord
{
    ServiceId id = 0;
    AccountId account = 0;
    ExecEnv env = ExecEnv::Gen1;
    ContainerSize size = sizes::kSmall;
    /** Requests one instance serves concurrently (Cloud Run default
     *  in the paper's setup: one connection per instance). */
    std::uint32_t max_concurrency = 1;
    std::vector<hw::HostId> helper_order;    //!< helper preference list
    std::vector<hw::HostId> spill_order;     //!< cold-leak destinations
    std::deque<std::pair<sim::SimTime, std::uint32_t>> bursts;
    /** Creation instants from the request path (burst aggregation). */
    std::deque<sim::SimTime> request_creations;
    std::vector<InstanceId> active;
    std::vector<InstanceId> idle;
    std::uint64_t helper_seed = 0;           //!< for dynamic regeneration
    std::uint64_t requests_served = 0;
};

/** What admitRequest did with one open-loop arrival. */
enum class AdmissionOutcome : std::uint8_t
{
    Served = 0,  //!< routed immediately to warm capacity
    Queued = 1,  //!< parked in the admission queue (cold-start wait)
    Rejected = 2,//!< dropped: queue full, ShedPolicy::Reject
    Shed = 3     //!< admitted by displacing the oldest queued request
};

/** Result of one admitRequest call. */
struct AdmissionResult
{
    AdmissionOutcome outcome = AdmissionOutcome::Served;
    /** Serving instance when outcome == Served, else kNoInstance. */
    InstanceId instance = kNoInstance;
};

/**
 * SLO accounting for the open-loop admission path. Plain values, not
 * metrics-registry handles: runs with no registry (loadgen, the
 * scenario runner, perfbench's sloTotals()) still need them, and the
 * snapshot image carries them across a restore. Latency of a served
 * request is queue wait plus service time; warm hits wait zero and
 * observe only into latency_s.
 */
struct SloStats
{
    obs::Histogram latency_s;   //!< end-to-end request latency, seconds
    obs::Histogram cold_wait_s; //!< admission-queue wait, seconds
    std::uint64_t admitted = 0;    //!< total admitRequest calls
    std::uint64_t served_warm = 0; //!< immediate warm routes
    std::uint64_t queued = 0;      //!< parked for a cold-start wait
    std::uint64_t dispatched = 0;  //!< left the queue onto an instance
    std::uint64_t rejected = 0;    //!< dropped arrivals (Reject policy)
    std::uint64_t shed = 0;        //!< displaced entries (ShedOldest)
};

/** One request parked in a service's admission queue. */
struct QueuedRequest
{
    sim::SimTime enqueued_at;
    sim::Duration service_time;
};

/**
 * Per-service admission queue. One dispatch timer is armed for the
 * head entry only (re-armed on every pop), so a queued request's
 * cold start begins when it reaches the head — and no entry can be
 * stranded by a timer that fired for a since-served neighbour.
 */
struct AdmissionQueue
{
    std::deque<QueuedRequest> q;
    sim::EventId dispatch_event = 0; //!< armed for q.front(), 0 if none
};

/** A tenant account. */
struct AccountRecord
{
    AccountId id = 0;
    std::uint32_t shard = 0;
    std::vector<hw::HostId> base_order;      //!< jittered popularity order
    std::uint32_t live_count = 0;            //!< active+idle instances
    double spend_usd = 0.0;

    /**
     * Per-service concurrent-instance quota. Established accounts get
     * the platform default (1000); freshly created accounts are capped
     * (e.g. 10) until they demonstrate sustained usage — the cost the
     * paper identifies for multi-account attack scaling (§5.2).
     */
    std::uint32_t quota_per_service = 1000;
};

/**
 * The orchestrator. Owns all accounts, services and instances of one
 * data center and implements scale-out/scale-in and idle reaping on the
 * shared event queue.
 */
class Orchestrator
{
  public:
    /**
     * @param fleet The physical fleet (not owned).
     * @param eq Event queue driving virtual time (not owned).
     * @param cfg Tunables.
     * @param profile The data-center profile (copied).
     * @param pricing Billing rates.
     * @param rng Root stream; children are forked per purpose.
     * @param obs Observability handle (optional; see src/obs/).
     */
    Orchestrator(Fleet &fleet, sim::EventQueue &eq,
                 const OrchestratorConfig &cfg,
                 const DataCenterProfile &profile,
                 const PricingModel &pricing, sim::Rng rng,
                 obs::Observer obs = {});

    /**
     * Register a new account.
     * @param shard Optional home shard; defaults to hashing the id.
     * @param quota_per_service Concurrent-instance cap per service.
     */
    AccountId createAccount(std::optional<std::uint32_t> shard = {},
                            std::uint32_t quota_per_service = 1000);

    /** Provider-side quota change (sustained-usage promotion). */
    void setAccountQuota(AccountId account,
                         std::uint32_t quota_per_service);

    /** Deploy a service under @p account. */
    ServiceId deployService(AccountId account, ExecEnv env,
                            ContainerSize size);

    /**
     * Redeploy a service with a freshly built container image (used by
     * the paper's Experiment 2 variant). Demand history is retained, as
     * observed on Cloud Run.
     */
    void redeployService(ServiceId service);

    /**
     * Scale the service to @p n concurrently-active instances: reuse all
     * idle instances first, then create the shortfall via placement.
     *
     * @return Ids of the n instances now serving connections.
     */
    std::vector<InstanceId> scaleOut(ServiceId service, std::uint32_t n);

    /** Disconnect everything: all active instances become idle. */
    void disconnectAll(ServiceId service);

    /**
     * Route one incoming request to the service (autoscaling,
     * Section 2.2): prefer an active instance with spare concurrency,
     * else wake an idle instance, else create one through the normal
     * placement path. The instance is occupied for @p service_time;
     * when its last in-flight request completes it goes idle and
     * releases its CPU.
     *
     * @return Id of the serving instance.
     */
    InstanceId routeRequest(ServiceId service,
                            sim::Duration service_time);

    /**
     * Open-loop admission (the ArrivalEngine's entry point): route to
     * warm capacity when any exists — exactly the instance
     * routeRequest would pick — otherwise park the request in the
     * service's FIFO admission queue for one cold-start time (or
     * until a completion frees capacity sooner). A full queue applies
     * cfg.shed_policy. Latency and queue-wait land in sloStats().
     */
    AdmissionResult admitRequest(ServiceId service,
                                 sim::Duration service_time);

    /** SLO accounting accumulated by the admitRequest path. */
    const SloStats &sloStats() const { return slo_; }

    /** Requests currently parked in a service's admission queue. */
    std::size_t admissionBacklog(ServiceId service) const;

    /** Set a service's per-instance concurrency limit. */
    void setMaxConcurrency(ServiceId service, std::uint32_t limit);

    /**
     * Terminate an instance and create a replacement through the normal
     * placement path (used to model instance churn of long-running
     * deployments). @return the replacement's id.
     */
    InstanceId restartInstance(InstanceId id);

    /** Look up an instance record. */
    const InstanceRecord &instance(InstanceId id) const;

    /** Look up a service record. */
    const ServiceRecord &service(ServiceId id) const;

    /** Look up an account record. */
    const AccountRecord &account(AccountId id) const;

    /** Number of instances ever created. */
    std::size_t instanceCount() const { return instances_.size(); }

    /** Total spend of an account so far, USD (includes running bill). */
    double accountSpendUsd(AccountId id) const;

    /** Pricing model in force. */
    const PricingModel &pricing() const { return pricing_; }

    /** Attach an optional placement-trace collector (nullptr detaches). */
    void attachTrace(PlacementTrace *trace) { trace_ = trace; }

    /** Configuration in force. */
    const OrchestratorConfig &config() const { return cfg_; }

    /**
     * Sharded-lane mode: capacity checks read @p committed (the
     * window-start snapshot shared by all lanes) *plus* this
     * orchestrator's local table, which from now on holds only the
     * lane's own not-yet-folded delta (touch tracking on). nullptr
     * restores standalone mode. See docs/sharding.md.
     */
    void attachCommittedLoad(const support::HostLoadSoA *committed);

    /** The local load table (the lane delta in sharded mode). */
    support::HostLoadSoA &localLoad() { return host_load_; }

    /**
     * EventTag kinds for the callback families the orchestrator
     * schedules; checkpoint restore rebinds a serialized event through
     * rebindEvent(kind, arg). The arg is an instance id for Complete
     * and Reap, a service id for Dispatch. See docs/checkpoint.md.
     */
    static constexpr std::uint32_t kEventTagComplete = 1;
    static constexpr std::uint32_t kEventTagReap = 2;
    static constexpr std::uint32_t kEventTagDispatch = 3;

    /**
     * Planted fault 6 (OrchestratorConfig::fault_injection): cancel
     * and re-arm every armed admission dispatch timer from its
     * service's stale *base* startup estimate — no creation-slowdown
     * term, no credit for the wait the queue head has already served.
     * Called by ShardedPlatform::appendOps when a time-travel fork
     * appends a suffix to a restored run; a no-op for services with
     * no timer armed. See docs/testing.md (mutation self-test).
     */
    void faultRearmDispatchTimers();

  private:
    friend class eaao::snap::Snapshotter;

    /**
     * Reconstruct the callback a serialized EventTag stood for
     * (checkpoint restore, after instances_ has been restored).
     */
    sim::EventQueue::Callback rebindEvent(std::uint32_t kind,
                                          std::uint64_t arg);

    /**
     * Rebuild every derived table (per-host account/service load maps,
     * routing-index entries, per-account active sets, dense per-service
     * host loads, placement min-views) from the restored primary
     * records. The routing index's next_seq must already be restored.
     */
    void rebuildDerivedState();

    /** Current hotness level of a service (0 = cold). */
    std::uint32_t hotness(const ServiceRecord &svc) const;

    /** Create one instance of @p svc; returns its id. */
    InstanceId createInstance(ServiceRecord &svc, std::uint32_t hotness);

    /** Pick a host for a new instance, reporting the path taken. */
    hw::HostId pickHost(const ServiceRecord &svc,
                        const AccountRecord &acct, std::uint32_t hotness,
                        PlacementReason &reason) const;

    /** Cold path: least-loaded base host within the demand prefix. */
    std::optional<hw::HostId> pickBaseHost(const ServiceRecord &svc,
                                           const AccountRecord &acct)
        const;

    /**
     * Hot path: least-loaded host among the demand-sized base prefix
     * plus the hotness-sized helper prefix (the load balancer relieves
     * the base hosts without abandoning them).
     */
    std::optional<hw::HostId> pickHelperHost(const ServiceRecord &svc,
                                             const AccountRecord &acct,
                                             std::uint32_t hotness) const;

    /** Dynamic-DC cold spill: a random host off the base set. */
    std::optional<hw::HostId> pickSpillHost(const ServiceRecord &svc)
        const;

    /** Schedule the idle-reap event for an instance. */
    void scheduleReap(InstanceRecord &inst);

    /** Reap callback: terminate if still idle. */
    void reap(InstanceId id);

    /** Request-completion callback. */
    void completeRequest(InstanceId id);

    /**
     * Steps 1-2 of routeRequest: an active instance with spare
     * concurrency (least-loaded, activation order breaking ties), else
     * a woken idle instance (most recently idled first). nullptr when
     * only a cold start can serve.
     */
    InstanceRecord *findWarmTarget(ServiceRecord &svc);

    /**
     * Occupy @p target with one request: bump in-flight, reindex,
     * count, and schedule the completion event after @p service_time.
     */
    InstanceId occupy(ServiceRecord &svc, InstanceRecord &target,
                      sim::Duration service_time);

    /** Cold-start seconds a creation for @p svc would bill right now. */
    double startupEstimateS(const ServiceRecord &svc) const;

    /** Arm the dispatch timer for the head of @p svc's admission queue. */
    void armDispatch(ServiceRecord &svc);

    /** Dispatch-timer callback: the head's cold start has completed. */
    void dispatchQueued(ServiceId service);

    /** Drain queued requests into capacity freed by completions. */
    void maybeDispatchQueued(ServiceRecord &svc);

    /**
     * Serve a dequeued request: onto @p target when non-null, else
     * through a cold creation. Observes wait and latency.
     */
    void serveQueued(ServiceRecord &svc, const QueuedRequest &qr,
                     InstanceRecord *target);

    /** Track request-path creations; aggregate surges into bursts. */
    void noteRequestCreation(ServiceRecord &svc);

    /** Terminate an instance (any non-terminated state). */
    void terminate(InstanceRecord &inst);

    /** Move an instance out of Active, crediting billing. */
    void settleActiveTime(InstanceRecord &inst);

    /**
     * Index bookkeeping for an instance entering the Active state (it
     * was just appended to its service's active list): registers it
     * with the routing index and the account's active-instance set.
     */
    void noteActivated(ServiceRecord &svc, InstanceRecord &inst);

    /** Rebuild an account's placement min-view after an order change. */
    void rebuildBaseIndex(const AccountRecord &acct);

    /** Capacity check for one more instance of @p size on @p host. */
    bool hasCapacity(hw::HostId host, const ContainerSize &size) const;

    /** Build/refresh the per-account base order. */
    std::vector<hw::HostId> buildBaseOrder(const AccountRecord &acct,
                                           double jitter,
                                           sim::Rng &rng) const;

    /** Build/refresh a per-service helper order. */
    std::vector<hw::HostId> buildHelperOrder(std::uint32_t home_shard,
                                             std::uint64_t seed) const;

    /** Build/refresh a per-service cold-spill order (uniform random). */
    std::vector<hw::HostId> buildSpillOrder(std::uint32_t home_shard,
                                            std::uint64_t seed) const;

    /** Apply per-launch dynamism (us-central1 style), if configured. */
    void refreshPreferences(ServiceRecord &svc, AccountRecord &acct);

    Fleet &fleet_;
    sim::EventQueue &eq_;
    OrchestratorConfig cfg_;
    DataCenterProfile profile_;
    PricingModel pricing_;
    mutable sim::Rng rng_;

    /**
     * Observability handle plus metric handles resolved once at
     * construction (null when no registry is attached), so each
     * instrument site is a branch-on-null in the disabled case.
     */
    obs::Observer obs_;
    obs::Counter *c_placements_[kPlacementReasonCount] = {};
    obs::Counter *c_reaps_ = nullptr;
    obs::Counter *c_requests_ = nullptr;
    obs::Histogram *h_cold_start_s_ = nullptr;
    obs::Histogram *h_instances_per_host_ = nullptr;
    obs::Histogram *h_helper_churn_ = nullptr;
    obs::Histogram *h_request_latency_s_ = nullptr;
    obs::Histogram *h_cold_wait_s_ = nullptr;

    PlacementTrace *trace_ = nullptr;
    std::vector<AccountRecord> accounts_;
    std::vector<ServiceRecord> services_;
    std::vector<InstanceRecord> instances_;

    /** Admission queues, indexed by service id (grown on deploy). */
    std::vector<AdmissionQueue> admission_;
    SloStats slo_;

    /**
     * Per-host capacity in use, SoA columns (support::HostLoadSoA).
     * Standalone: the whole truth. Sharded lane: the lane's delta
     * since the last window barrier, read against committed_load_.
     */
    support::HostLoadSoA host_load_;
    const support::HostLoadSoA *committed_load_ = nullptr;
    /**
     * Per-host live-instance count by account, the source the base
     * min-views are rebuilt from. Host-local cardinality is ~10
     * (Obs 1), so a sorted vector beats a hash table and iterates
     * deterministically.
     */
    std::vector<support::SmallFlatMap<AccountId, std::uint32_t>> acct_load_;

    /**
     * Incremental decision indexes. Each reproduces a brute-force
     * recomputation in src/testkit/reference.hpp exactly; see
     * docs/performance.md for the invariants.
     */
    RoutingIndex routing_;                        //!< least-loaded routing
    std::vector<PlacementMinIndex> base_index_;   //!< per account
    /** Per account: Active instance ids, sorted ascending (so the
     *  spend query sums in the same order a full instance-table scan
     *  does — bit-identical doubles). */
    std::vector<std::vector<InstanceId>> acct_active_;
    /** Per service: dense per-host live-instance counts, read by the
     *  helper and spill scans. */
    std::vector<std::vector<std::uint32_t>> svc_host_load_;
};

} // namespace eaao::faas

#endif // EAAO_FAAS_ORCHESTRATOR_HPP
