/**
 * @file
 * Deterministic intra-trial parallelism: the sharded platform.
 *
 * One trial is partitioned into *lanes* at datacenter-shard
 * granularity: lane count is a fixed platform property
 * (min(max_lanes, fleet shard count)), every account lives on the
 * lane of its home shard (home-shard % lanes), and each lane owns a
 * private event queue, orchestrator, placement trace and log buffers.
 * The only coupling between lanes is host capacity, which is
 * exchanged through a conservative virtual-time window protocol:
 *
 *  1. All lanes advance independently to the next window barrier
 *     (window length defaults to a demand-window/reap-window
 *     divisor), reading host capacity as `committed + own delta`.
 *  2. At the barrier, every lane's capacity delta is folded into the
 *     shared committed table in canonical lane order, and a fold
 *     digest line is appended to the exchange log.
 *
 * The `shards` and `threads` knobs only choose how the *fixed* lanes
 * are grouped onto pool workers (contiguous lane ranges, serial
 * within a group, groups in parallel); no decision anywhere depends
 * on the grouping, so the canonical log — and any metrics or traces
 * recorded per lane — is byte-identical for every (shards, threads)
 * combination. testkit's shard-equality oracle enforces exactly this.
 *
 * See docs/sharding.md for the protocol, the sparse capacity ledger, and
 * the planted fault modes (OrchestratorConfig::fault_injection 3/4).
 */

#ifndef EAAO_FAAS_SHARDED_HPP
#define EAAO_FAAS_SHARDED_HPP

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/thread_pool.hpp"
#include "faas/fleet.hpp"
#include "faas/orchestrator.hpp"
#include "faas/trace.hpp"
#include "faas/workload.hpp"
#include "obs/export.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "support/host_load.hpp"

namespace eaao::snap {
class Snapshotter;
} // namespace eaao::snap

namespace eaao::faas {

/**
 * One timestamped operation against the sharded platform. The driver
 * (testkit runner or bench) compiles its script into a flat op list;
 * ShardedPlatform::run() partitions the ops onto lanes and interleaves
 * them with event processing inside the window loop.
 */
struct ShardOp
{
    enum class Kind : std::uint8_t
    {
        Connect,        //!< scaleOut(service, a)
        Disconnect,     //!< disconnectAll(service)
        Route,          //!< one routed request (logged with its host)
        RouteStorm,     //!< n unlogged requests (counted + spend checksum)
        SetConcurrency, //!< setMaxConcurrency(service, a)
        SetQuota,       //!< setAccountQuota(account, a)
        Redeploy,       //!< redeployService(service)
        Restart,        //!< restart pick a of the lane's created list
        SpendProbe,     //!< log account spend
        OpenLoop,       //!< start an open-loop arrival stream (see below)
    };

    Kind kind = Kind::Connect;
    sim::SimTime at;

    std::uint32_t step = 0; //!< canonical log label
    std::uint32_t sub = ~0u; //!< sub-label (burst index); ~0u = none

    ServiceId service = 0;  //!< global service id (service-directed kinds)
    AccountId account = 0;  //!< global account id (SetQuota/SpendProbe/Restart)
    std::uint32_t a = 0;    //!< payload: connect n / concurrency / quota / pick
    sim::Duration dur;      //!< route service time; storm base service time

    // RouteStorm shape: request r runs for dur + dur_step * (r % dur_mod),
    // arrivals advance by `gap` after every `gap_every` requests, and the
    // account's spend is folded into the lane checksum every `spend_every`.
    std::uint64_t n = 0;
    std::uint32_t gap_every = 0;
    sim::Duration gap;
    sim::Duration dur_step;
    std::uint32_t dur_mod = 1;
    std::uint32_t spend_every = 0;

    // OpenLoop shape: an arrival stream for `service` lasting `span`
    // from `at`. Family is `a` (an ArrivalKind), mean offered load is
    // `rate` rps with burstiness `burst`, service times exponential
    // around `dur`, connection churn every `gap` (0 = never). The lane
    // runs it as a faas::OpenLoopStream re-armed at every window top:
    // one pending arrival at a time, landing on
    // Orchestrator::admitRequest, so admission backpressure and
    // cold-start queueing apply; outcomes accumulate in the lane's
    // sloStats() and render as conditional log lines.
    double rate = 0.0;
    double burst = 2.0;
    sim::Duration span;
};

/** The ArrivalSpec an OpenLoop op describes (shared with restore). */
ArrivalSpec openLoopSpec(const ShardOp &op);

/** Configuration of a sharded trial. */
struct ShardedConfig
{
    DataCenterProfile profile = DataCenterProfile::usEast1();
    OrchestratorConfig orchestrator;
    hw::TscConfig tsc;
    hw::TimingNoiseConfig timing;
    PricingModel pricing;
    std::uint64_t seed = 1;
    sim::SimTime epoch;

    /** Window barrier period (a demand/reap-window divisor). */
    sim::Duration window = sim::Duration::seconds(30);

    /** Lane cap; lanes = min(max_lanes, fleet shard count). */
    std::uint32_t max_lanes = 16;

    /** Worker groups the fixed lanes are folded onto (the knob under
     *  test: output must not depend on it). */
    std::uint32_t shards = 1;

    /** Pool threads driving the groups (also output-invariant). */
    unsigned threads = 1;
};

/** Aggregates for bench output (all derived in lane order). */
struct ShardedTotals
{
    std::uint64_t routed = 0;       //!< requests routed (Route + storms)
    std::uint64_t open_loop = 0;    //!< open-loop arrivals admitted
    std::uint64_t instances = 0;    //!< instances ever created
    double spend_checksum = 0.0;    //!< storm spend-poll checksum
    double final_spend_usd = 0.0;   //!< all accounts, at the final barrier
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t events_cancelled = 0;
    std::uint64_t events_pending = 0;
    std::uint32_t windows = 0;      //!< barriers executed
};

/**
 * The sharded platform: a fixed lane partition of one datacenter
 * trial with window-barrier capacity exchange. Create accounts and
 * services up front, then run() one op script to completion.
 */
class ShardedPlatform
{
  public:
    explicit ShardedPlatform(const ShardedConfig &cfg,
                             obs::TrialSet *obs_set = nullptr);
    ~ShardedPlatform();

    ShardedPlatform(const ShardedPlatform &) = delete;
    ShardedPlatform &operator=(const ShardedPlatform &) = delete;

    /** Fixed lane count (independent of shards/threads). */
    std::uint32_t laneCount() const
    {
        return static_cast<std::uint32_t>(lanes_.size());
    }

    const Fleet &fleet() const { return *fleet_; }

    /**
     * Register an account. The home shard defaults to the same hash
     * of the (global) account id the standalone orchestrator uses, so
     * unpinned accounts land on partition-invariant lanes.
     */
    AccountId createAccount(std::optional<std::uint32_t> shard = {},
                            std::uint32_t quota_per_service = 1000);

    ServiceId deployService(AccountId account, ExecEnv env,
                            ContainerSize size = sizes::kSmall);

    std::uint32_t laneOfAccount(AccountId account) const;
    std::uint32_t laneOfService(ServiceId service) const;

    /** Lane an op partitions onto (account lane for account-keyed ops). */
    std::uint32_t laneForOp(const ShardOp &op) const;

    /**
     * Execute @p ops (timestamps non-decreasing per lane) through the
     * window loop, running barriers until at least @p horizon and
     * every op has been applied. Events scheduled beyond the last
     * barrier stay pending (they are counted, not lost). May be called
     * again with more ops: the window sequence continues from the last
     * barrier, so a run split into phases is byte-identical to the
     * same script run in one call.
     */
    void run(std::vector<ShardOp> ops, sim::SimTime horizon);

    /**
     * Stepping API underneath run(), exposed so a driver can pause at
     * a window barrier — the checkpoint capture point (docs/
     * checkpoint.md). beginRun() partitions the ops and arms the run;
     * each window is then advanceWindow() (lanes run to the barrier;
     * their capacity deltas are still unfolded — the pre-fold capture
     * point) followed by completeWindow() (deltas fold, the window
     * commits). running() turns false once the horizon is reached with
     * every op consumed.
     */
    void beginRun(std::vector<ShardOp> ops, sim::SimTime horizon);
    void advanceWindow();
    void completeWindow();
    bool running() const { return running_; }

    /**
     * Finish an in-flight run to completion — the restore path: a
     * snapshot captured pre-fold restores with pending_fold set, so
     * the first step folds the captured deltas, then the window loop
     * continues exactly where the captured run stood.
     */
    void resumeRun();

    /**
     * Append more script to an in-flight run — the time-travel fork
     * path (docs/testing.md): a restored run gets a divergent suffix
     * before resumeRun(). Ops partition onto lanes after the script
     * already loaded, so each op must not precede its lane's current
     * tail, and every op must land strictly after the barrier the
     * image was captured at (appending at-or-before the pending fold
     * would change which window folds it). @p horizon extends the run
     * horizon when later than the captured one. Under planted fault 6
     * every lane re-arms its admission dispatch timers from the stale
     * base startup estimate (Orchestrator::faultRearmDispatchTimers).
     */
    void appendOps(std::vector<ShardOp> ops, sim::SimTime horizon);

    /**
     * Canonical text log: per-lane traces, routed/restart/spend lines,
     * final spends and event counters in lane order, then the window
     * exchange digest. Byte-identical across (shards, threads) — the
     * unit the shard-equality oracle compares.
     */
    std::string renderLog() const;

    ShardedTotals totals() const;

    /**
     * Lane-order merge of every lane orchestrator's sloStats(): the
     * fleet-wide admission picture of the open-loop streams. Campaign
     * programs publish it as trigger counters (slo.p99_s and friends,
     * docs/load-engine.md) and quantiles come from
     * obs::histogramQuantile over the merged histograms.
     */
    SloStats sloTotals() const;

    /** The shared committed capacity table (tests: conservation). */
    const support::HostLoadTable &committedLoad() const { return committed_; }

    /** A lane's orchestrator (tests: account/instance inspection). */
    const Orchestrator &laneOrchestrator(std::uint32_t lane) const;

  private:
    friend class eaao::snap::Snapshotter;

    /** One lane: a private event queue + orchestrator + log buffers. */
    struct Lane
    {
        explicit Lane(sim::SimTime epoch) : eq(epoch) {}

        sim::EventQueue eq;
        std::unique_ptr<Orchestrator> orch;
        PlacementTrace trace;

        std::vector<ShardOp> ops;
        std::size_t next_op = 0;

        // In-progress RouteStorm (may span several windows).
        const ShardOp *storm = nullptr;
        std::uint64_t storm_done = 0;
        sim::SimTime storm_t;

        /**
         * One active open-loop stream. It is armed with the lane's
         * window stop and never re-arms past it, so no plain-closure
         * arrival event is pending at a capture point: the stream's
         * forward state is its cursor, service-time RNG and churn
         * instant, which the checkpointer serializes. A deque, because
         * pending events point at their stream.
         */
        struct OpenLoop
        {
            std::size_t op_index = 0; //!< defining op in `ops`
            OpenLoopStream stream;
        };
        std::deque<OpenLoop> open_loops;
        sim::SimTime window_stop; //!< current lane-window stop (not
                                  //!< serialized; set per window)

        std::vector<AccountId> accounts; //!< local ids, creation order
        std::vector<ServiceId> services;
        std::vector<InstanceId> created; //!< local ids, creation order
        std::size_t trace_scanned = 0;   //!< created-list scan cursor

        std::vector<std::string> routed;
        std::vector<std::string> restarted;
        std::vector<std::string> spend;
        std::uint64_t routed_count = 0;
        double spend_checksum = 0.0;
    };

    std::uint32_t groupCount() const;
    std::uint32_t groupLocalIndex(std::uint32_t lane) const;
    void ensurePool();
    void runWindow(sim::SimTime wend);
    void laneRunWindow(Lane &lane, sim::SimTime stop);
    bool runStorm(Lane &lane, sim::SimTime stop);
    void armOpenLoop(Lane &lane, Lane::OpenLoop &ol);
    void applyOp(Lane &lane, const ShardOp &op);
    void foldBarrier(std::uint32_t window_index);
    void noteCreated(Lane &lane);
    bool allOpsConsumed() const;

    ShardedConfig cfg_;
    std::unique_ptr<Fleet> fleet_;
    support::HostLoadTable committed_; //!< window-start capacity snapshot
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::unique_ptr<exp::ThreadPool> pool_;
    obs::TrialSet *obs_set_ = nullptr; //!< not owned; may be null

    /** Global id -> (lane, lane-local id). */
    std::vector<std::pair<std::uint32_t, AccountId>> acct_map_;
    std::vector<std::pair<std::uint32_t, ServiceId>> svc_map_;

    std::vector<std::string> exchange_log_; //!< window fold digests
    std::uint32_t windows_run_ = 0;
    sim::SimTime final_now_;

    // Window-loop state (live between beginRun and the end of a run;
    // serialized by the checkpointer so a restored run resumes).
    sim::SimTime run_horizon_;
    sim::SimTime next_wend_;
    bool running_ = false;
    bool pending_fold_ = false; //!< advanceWindow ran, fold outstanding
};

} // namespace eaao::faas

#endif // EAAO_FAAS_SHARDED_HPP
