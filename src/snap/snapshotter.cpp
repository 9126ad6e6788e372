/**
 * @file
 * ShardedPlatform checkpoint capture/restore (see snapshotter.hpp).
 *
 * Serialization strategy: the *primary* records of each lane
 * orchestrator (accounts, services with their helper and spill
 * prefixes, instances, RNG position, routing sequence counter, the
 * host-load table's entries in first-touch order) are stored verbatim
 * — every double as its IEEE-754 bit pattern — while the *derived*
 * tables (per-account and per-service host counts, routing slots,
 * per-account active sets, placement min-views) are rebuilt
 * deterministically by Orchestrator::rebuildDerivedState() after
 * restore. Nothing in the image is sized by the fleet. Event-queue
 * callbacks are serialized as EventTags and rebound through
 * Orchestrator::rebindEvent().
 *
 * Restore checks every id (hosts, accounts, services, instances,
 * lanes) before anything indexes with it, and refuses a checksum-valid
 * but inconsistent image with one "corrupt snapshot: ..." line.
 */

#include "snap/snapshotter.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "exp/thread_pool.hpp"
#include "snap/format.hpp"
#include "support/block_vector.hpp"
#include "support/logging.hpp"

namespace eaao::snap {

namespace {

using faas::ShardOp;

/**
 * Run @p fn(lane_index) for every lane, fanned over a temporary pool
 * when the platform was configured multi-threaded. Lane state is
 * disjoint, so this is safe for both capture (read-only) and restore
 * (per-lane mutation); callers that need cross-lane sequencing (the
 * fault-5 "first lane" victim pick) must pass threads = 1.
 */
void
forEachLane(std::uint32_t lanes, unsigned threads,
            const std::function<void(std::uint32_t)> &fn)
{
    if (threads > 1 && lanes > 1) {
        exp::ThreadPool pool(std::min<unsigned>(threads, lanes));
        for (std::uint32_t i = 0; i < lanes; ++i)
            pool.submit([&fn, i] { fn(i); });
        pool.wait();
        return;
    }
    for (std::uint32_t i = 0; i < lanes; ++i)
        fn(i);
}

// ---------------------------------------------------------------- helpers

/**
 * Unchecked little-endian load from a window already claimed via
 * SectionReader::take(). Compiles to a single load on little-endian
 * hosts; the shift assembly keeps big-endian hosts correct.
 */
std::uint64_t
ldLE(const std::uint8_t *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
ldU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(ldLE(p, 4));
}

std::int64_t
ldI64(const std::uint8_t *p)
{
    return static_cast<std::int64_t>(ldLE(p, 8));
}

double
ldF64(const std::uint8_t *p)
{
    const std::uint64_t bits = ldLE(p, 8);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

/** Counterpart stores into a window claimed via SectionWriter::grow(). */
void
stLE(std::uint8_t *p, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
stF64(std::uint8_t *p, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    stLE(p, bits, 8);
}

/** Fixed wire widths of the three bulk-encoded record tables. */
constexpr std::size_t kInstWire = 84;
constexpr std::size_t kTraceWire = 29;
constexpr std::size_t kLoadWire = 20; //!< u32 host, f64 vcpus, f64 mem

/** A load table's entries, in first-touch order. */
void
putLoadTable(SectionWriter &out, const support::HostLoadTable &table)
{
    out.putU64(table.size());
    std::uint8_t *p = out.grow(table.size() * kLoadWire);
    for (std::size_t e = 0; e < table.size(); ++e) {
        stLE(p, table.hosts()[e], 4);
        stF64(p + 4, table.vcpusColumn()[e]);
        stF64(p + 12, table.memColumn()[e]);
        p += kLoadWire;
    }
}

/**
 * Read a load table's entries into @p table, refusing hosts past the
 * fleet and duplicated hosts. @p zero_vcpus arms planted fault 5: the
 * entries' vcpus values restore as 0.
 */
bool
getLoadTable(SectionReader &in, std::uint32_t fleet_size, bool zero_vcpus,
             support::HostLoadTable &table, std::string &error)
{
    std::uint64_t n = 0;
    const std::uint8_t *raw = nullptr;
    if (!in.getU64(n) || n > in.remaining() / kLoadWire ||
        (raw = in.take(static_cast<std::size_t>(n) * kLoadWire)) == nullptr) {
        error = "truncated snapshot: host-load table";
        return false;
    }
    table.clear();
    for (std::uint64_t e = 0; e < n; ++e) {
        const std::uint8_t *p = raw + e * kLoadWire;
        const std::uint32_t host = ldU32(p);
        if (host >= fleet_size) {
            error = "corrupt snapshot: host-load entry for host " +
                    std::to_string(host) + " past the fleet";
            return false;
        }
        if (!table.restoreEntry(host, zero_vcpus ? 0.0 : ldF64(p + 4),
                                ldF64(p + 12))) {
            error = "corrupt snapshot: duplicate host-load entry for host " +
                    std::to_string(host);
            return false;
        }
    }
    return true;
}

/**
 * True when @p order lists distinct hosts of the fleet, each of them
 * accepted by @p member.
 */
template <typename Member>
bool
distinctMembers(const std::vector<hw::HostId> &order,
                std::uint32_t fleet_size, Member &&member)
{
    support::HostMap seen;
    for (const hw::HostId host : order) {
        if (host >= fleet_size || !member(host) || !seen.insert(host, 0))
            return false;
    }
    return true;
}

void
putU32Vec(SectionWriter &out, const std::vector<std::uint32_t> &v)
{
    out.putU64(v.size());
    for (const std::uint32_t x : v)
        out.putU32(x);
}

bool
getU32Vec(SectionReader &in, std::vector<std::uint32_t> &v)
{
    std::uint64_t n = 0;
    if (!in.getU64(n))
        return false;
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t x = 0;
        if (!in.getU32(x))
            return false;
        v.push_back(x);
    }
    return true;
}

void
putU64Vec(SectionWriter &out, const std::vector<std::uint64_t> &v)
{
    out.putU64(v.size());
    for (const std::uint64_t x : v)
        out.putU64(x);
}

bool
getU64Vec(SectionReader &in, std::vector<std::uint64_t> &v)
{
    std::uint64_t n = 0;
    if (!in.getU64(n))
        return false;
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t x = 0;
        if (!in.getU64(x))
            return false;
        v.push_back(x);
    }
    return true;
}

void
putF64Vec(SectionWriter &out, const std::vector<double> &v)
{
    out.putU64(v.size());
    out.putF64Array(v.data(), v.size());
}

bool
getF64Vec(SectionReader &in, std::vector<double> &v)
{
    std::uint64_t n = 0;
    // The remaining() bound keeps a hostile count from ballooning the
    // allocation before the payload proves it holds n doubles.
    if (!in.getU64(n) || n > in.remaining() / 8)
        return false;
    v.resize(static_cast<std::size_t>(n));
    return in.getF64Array(v.data(), v.size());
}

void
putHistogram(SectionWriter &out, const obs::Histogram &h)
{
    putF64Vec(out, h.bounds);
    putU64Vec(out, h.counts);
    out.putU64(h.count);
    out.putF64(h.sum);
    out.putF64(h.min);
    out.putF64(h.max);
}

bool
getHistogram(SectionReader &in, obs::Histogram &h)
{
    if (!getF64Vec(in, h.bounds) || !getU64Vec(in, h.counts) ||
        !in.getU64(h.count) || !in.getF64(h.sum) || !in.getF64(h.min) ||
        !in.getF64(h.max))
        return false;
    return h.counts.empty() || h.counts.size() == h.bounds.size() + 1;
}

void
putRng(SectionWriter &out, const sim::RngState &rng)
{
    for (int i = 0; i < 4; ++i)
        out.putU64(rng.s[i]);
    out.putF64(rng.cached_normal);
    out.putU8(rng.has_cached_normal ? 1 : 0);
}

bool
getRng(SectionReader &in, sim::RngState &rng)
{
    std::uint8_t has_cached = 0;
    for (int i = 0; i < 4; ++i)
        if (!in.getU64(rng.s[i]))
            return false;
    if (!in.getF64(rng.cached_normal) || !in.getU8(has_cached))
        return false;
    rng.has_cached_normal = has_cached != 0;
    return true;
}

void
putStringVec(SectionWriter &out, const std::vector<std::string> &v)
{
    out.putU64(v.size());
    for (const std::string &s : v)
        out.putString(s);
}

bool
getStringVec(SectionReader &in, std::vector<std::string> &v)
{
    std::uint64_t n = 0;
    if (!in.getU64(n))
        return false;
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string s;
        if (!in.getString(s))
            return false;
        v.push_back(std::move(s));
    }
    return true;
}

/** The four preset container sizes, indexed for serialization. */
const faas::ContainerSize *const kSizes[] = {
    &faas::sizes::kPico,
    &faas::sizes::kSmall,
    &faas::sizes::kMedium,
    &faas::sizes::kLarge,
};

std::uint8_t
sizeIndex(const faas::ContainerSize &size)
{
    for (std::uint8_t i = 0; i < 4; ++i) {
        if (std::strcmp(kSizes[i]->name, size.name) == 0 &&
            kSizes[i]->vcpus == size.vcpus &&
            kSizes[i]->memory_gb == size.memory_gb)
            return i;
    }
    EAAO_FATAL("checkpoint: container size ", size.name,
               " is not one of the four presets");
}

bool
sizeFromIndex(std::uint8_t idx, faas::ContainerSize &size)
{
    if (idx >= 4)
        return false;
    size = *kSizes[idx];
    return true;
}

void
putOp(SectionWriter &out, const ShardOp &op)
{
    out.putU8(static_cast<std::uint8_t>(op.kind));
    out.putI64(op.at.ns());
    out.putU32(op.step);
    out.putU32(op.sub);
    out.putU32(op.service);
    out.putU32(op.account);
    out.putU32(op.a);
    out.putI64(op.dur.ns());
    out.putU64(op.n);
    out.putU32(op.gap_every);
    out.putI64(op.gap.ns());
    out.putI64(op.dur_step.ns());
    out.putU32(op.dur_mod);
    out.putU32(op.spend_every);
    out.putF64(op.rate);
    out.putF64(op.burst);
    out.putI64(op.span.ns());
}

bool
getOp(SectionReader &in, ShardOp &op)
{
    std::uint8_t kind = 0;
    std::int64_t at = 0, dur = 0, gap = 0, dur_step = 0, span = 0;
    if (!in.getU8(kind) || !in.getI64(at) || !in.getU32(op.step) ||
        !in.getU32(op.sub) || !in.getU32(op.service) ||
        !in.getU32(op.account) || !in.getU32(op.a) || !in.getI64(dur) ||
        !in.getU64(op.n) || !in.getU32(op.gap_every) || !in.getI64(gap) ||
        !in.getI64(dur_step) || !in.getU32(op.dur_mod) ||
        !in.getU32(op.spend_every) || !in.getF64(op.rate) ||
        !in.getF64(op.burst) || !in.getI64(span))
        return false;
    if (kind > static_cast<std::uint8_t>(ShardOp::Kind::OpenLoop))
        return false;
    op.kind = static_cast<ShardOp::Kind>(kind);
    op.at = sim::SimTime::fromNanos(at);
    op.dur = sim::Duration::nanos(dur);
    op.gap = sim::Duration::nanos(gap);
    op.dur_step = sim::Duration::nanos(dur_step);
    op.span = sim::Duration::nanos(span);
    return true;
}

void
putEventQueueImage(SectionWriter &out, const sim::EventQueueImage &img)
{
    out.putI64(img.now_ns);
    out.putU64(img.next_seq);
    out.putU64(img.processed);
    out.putU64(img.scheduled);
    out.putU64(img.cancelled);
    out.putU64(img.slots.size());
    for (const auto &s : img.slots) {
        out.putU32(s.gen);
        out.putU8(s.live);
        out.putU32(s.kind);
        out.putU64(s.arg);
    }
    const auto putEntries =
        [&out](const std::vector<sim::EventQueueImage::EntryImage> &es) {
            out.putU64(es.size());
            for (const auto &e : es) {
                out.putI64(e.when_ns);
                out.putU64(e.seq);
                out.putU32(e.slot);
                out.putU32(e.gen);
            }
        };
    putEntries(img.heap);
    putEntries(img.staging);
    putU32Vec(out, img.free_list);
}

bool
getEventQueueImage(SectionReader &in, sim::EventQueueImage &img)
{
    std::uint64_t n = 0;
    if (!in.getI64(img.now_ns) || !in.getU64(img.next_seq) ||
        !in.getU64(img.processed) || !in.getU64(img.scheduled) ||
        !in.getU64(img.cancelled) || !in.getU64(n))
        return false;
    img.slots.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        sim::EventQueueImage::SlotImage s;
        if (!in.getU32(s.gen) || !in.getU8(s.live) || !in.getU32(s.kind) ||
            !in.getU64(s.arg))
            return false;
        img.slots.push_back(s);
    }
    const auto getEntries =
        [&in](std::vector<sim::EventQueueImage::EntryImage> &es) {
            std::uint64_t count = 0;
            if (!in.getU64(count))
                return false;
            es.clear();
            for (std::uint64_t i = 0; i < count; ++i) {
                sim::EventQueueImage::EntryImage e;
                if (!in.getI64(e.when_ns) || !in.getU64(e.seq) ||
                    !in.getU32(e.slot) || !in.getU32(e.gen))
                    return false;
                es.push_back(e);
            }
            return true;
        };
    return getEntries(img.heap) && getEntries(img.staging) &&
           getU32Vec(in, img.free_list);
}

} // namespace

// ------------------------------------------------------------ fingerprint

std::uint64_t
Snapshotter::configFingerprint(const faas::ShardedConfig &cfg)
{
    std::uint64_t h = 0xeaa0514a90000001ULL;
    const auto mixU = [&h](std::uint64_t v) { h = sim::mix64(h ^ v); };
    const auto mixF = [&](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mixU(bits);
    };
    const auto mixS = [&](const std::string &s) {
        mixU(fnv1a(reinterpret_cast<const std::uint8_t *>(s.data()),
                   s.size()));
    };

    mixU(cfg.seed);
    mixU(static_cast<std::uint64_t>(cfg.epoch.ns()));
    mixU(static_cast<std::uint64_t>(cfg.window.ns()));
    mixU(cfg.max_lanes);
    // cfg.shards / cfg.threads deliberately excluded: lane grouping is
    // output-invariant, so a snapshot restores at any grouping.

    const faas::DataCenterProfile &p = cfg.profile;
    mixS(p.name);
    mixU(p.host_count);
    mixU(p.shard_size);
    mixU(p.helper_chunk);
    mixF(p.helper_order_jitter);
    mixF(p.base_order_jitter);
    mixF(p.per_launch_jitter);
    mixF(p.base_launch_jitter);
    mixF(p.cold_spill_fraction);
    mixF(p.wave_fraction);
    mixU(p.wave_count);
    mixF(p.uptime_mean_days);
    mixF(p.wave_span_days);
    mixF(p.wave_sigma_s);

    const faas::OrchestratorConfig &o = cfg.orchestrator;
    mixF(o.spread_target);
    mixU(o.hot_burst_min);
    mixU(static_cast<std::uint64_t>(o.demand_window.ns()));
    mixU(o.hotness_cap);
    mixU(static_cast<std::uint64_t>(o.idle_hold.ns()));
    mixF(o.idle_reap_mean_s);
    mixU(static_cast<std::uint64_t>(o.idle_max.ns()));
    mixF(o.host_usable_fraction);
    mixF(o.host_usable_memory_fraction);
    mixU(o.creation_slowdown_threshold);
    mixF(o.creation_slowdown_factor);
    mixF(o.startup_billable_s_gen1);
    mixF(o.startup_billable_s_gen2);
    mixU(o.admission_depth);
    mixU(static_cast<std::uint64_t>(o.shed_policy));
    mixU(o.isolate_accounts ? 1 : 0);
    mixU(o.fault_injection);

    const hw::TscConfig &t = cfg.tsc;
    mixF(t.label_tail_fraction);
    mixF(t.label_core_median_hz);
    mixF(t.label_core_sigma);
    mixF(t.label_tail_median_hz);
    mixF(t.label_tail_sigma);
    mixF(t.refine_noise_half_width_hz);
    mixF(t.refine_granularity_hz);

    const hw::TimingNoiseConfig &n = cfg.timing;
    mixF(n.clean_fraction);
    mixF(n.clean_median_s);
    mixF(n.clean_sigma);
    mixF(n.dirty_median_s);
    mixF(n.dirty_sigma);
    mixF(n.noisy_timer_fraction);
    mixF(n.freq_meas_clean_sigma_hz);
    mixF(n.freq_meas_noisy_median_hz);
    mixF(n.freq_meas_noisy_sigma);

    mixF(cfg.pricing.cpu_usd_per_vcpu_s);
    mixF(cfg.pricing.mem_usd_per_gb_s);
    return h;
}

// ---------------------------------------------------------------- capture

void
Snapshotter::captureLane(const faas::ShardedPlatform::Lane &lane,
                         SectionWriter &out)
{
    sim::EventQueueImage img;
    if (!lane.eq.exportImage(img))
        EAAO_FATAL("checkpoint: a live event carries no EventTag "
                   "(only orchestrator-scheduled events are snapshot-safe)");
    putEventQueueImage(out, img);

    const faas::Orchestrator &orch = *lane.orch;

    putRng(out, orch.rng_.saveState());

    out.putU64(orch.routing_.nextSeq());

    out.putU64(orch.accounts_.size());
    for (const faas::AccountRecord &acct : orch.accounts_) {
        out.putU32(acct.id);
        out.putU32(acct.shard);
        putU32Vec(out, acct.base_order);
        out.putU32(acct.live_count);
        out.putF64(acct.spend_usd);
        out.putU32(acct.quota_per_service);
    }

    out.putU64(orch.services_.size());
    for (const faas::ServiceRecord &svc : orch.services_) {
        out.putU32(svc.id);
        out.putU32(svc.account);
        out.putU8(static_cast<std::uint8_t>(svc.env));
        out.putU8(sizeIndex(svc.size));
        out.putU32(svc.max_concurrency);
        putU32Vec(out, svc.helper_order);
        putU32Vec(out, svc.spill_order);
        out.putU64(svc.bursts.size());
        for (const auto &[when, count] : svc.bursts) {
            out.putI64(when.ns());
            out.putU32(count);
        }
        out.putU64(svc.request_creations.size());
        for (const sim::SimTime &when : svc.request_creations)
            out.putI64(when.ns());
        putU64Vec(out, svc.active);
        putU64Vec(out, svc.idle);
        out.putU64(svc.helper_seed);
        out.putU64(svc.requests_served);
        const faas::AdmissionQueue &aq = orch.admission_[svc.id];
        out.putU64(aq.dispatch_event);
        out.putU64(aq.q.size());
        for (const faas::QueuedRequest &qr : aq.q) {
            out.putI64(qr.enqueued_at.ns());
            out.putI64(qr.service_time.ns());
        }
    }

    putHistogram(out, orch.slo_.latency_s);
    putHistogram(out, orch.slo_.cold_wait_s);
    out.putU64(orch.slo_.admitted);
    out.putU64(orch.slo_.served_warm);
    out.putU64(orch.slo_.queued);
    out.putU64(orch.slo_.dispatched);
    out.putU64(orch.slo_.rejected);
    out.putU64(orch.slo_.shed);

    // The instance table dominates the image (every instance ever
    // created); encode its fixed-width records through one grow()
    // window instead of sixteen checked appends each.
    out.putU64(orch.instances_.size());
    std::uint8_t *ip = out.grow(orch.instances_.size() * kInstWire);
    for (const faas::InstanceRecord &inst : orch.instances_) {
        stLE(ip, inst.id, 8);
        stLE(ip + 8, inst.service, 4);
        stLE(ip + 12, inst.account, 4);
        stLE(ip + 16, inst.host, 4);
        ip[20] = sizeIndex(inst.size);
        ip[21] = static_cast<std::uint8_t>(inst.env);
        ip[22] = static_cast<std::uint8_t>(inst.state);
        stLE(ip + 23, inst.in_flight, 4);
        stLE(ip + 27, static_cast<std::uint64_t>(inst.created_at.ns()), 8);
        stLE(ip + 35, static_cast<std::uint64_t>(inst.state_since.ns()), 8);
        stF64(ip + 43, inst.active_seconds);
        stLE(ip + 51, inst.vm_tsc_offset, 8);
        ip[59] = inst.terminated_at.has_value() ? 1 : 0;
        stLE(ip + 60,
             static_cast<std::uint64_t>(
                 inst.terminated_at ? inst.terminated_at->ns() : 0),
             8);
        stLE(ip + 68, inst.reap_event, 8);
        stLE(ip + 76, inst.route_seq, 8);
        ip += kInstWire;
    }

    putLoadTable(out, orch.host_load_);

    out.putU64(lane.trace.events().size());
    std::uint8_t *tp = out.grow(lane.trace.events().size() * kTraceWire);
    for (const faas::PlacementEvent &ev : lane.trace.events()) {
        stLE(tp, static_cast<std::uint64_t>(ev.when.ns()), 8);
        stLE(tp + 8, ev.instance, 8);
        stLE(tp + 16, ev.service, 4);
        stLE(tp + 20, ev.account, 4);
        stLE(tp + 24, ev.host, 4);
        tp[28] = static_cast<std::uint8_t>(ev.reason);
        tp += kTraceWire;
    }

    out.putU64(lane.ops.size());
    for (const ShardOp &op : lane.ops)
        putOp(out, op);
    out.putU64(lane.next_op);
    out.putU64(lane.storm != nullptr
                   ? static_cast<std::uint64_t>(lane.storm - lane.ops.data())
                   : ~0ULL);
    out.putU64(lane.storm_done);
    out.putI64(lane.storm_t.ns());

    putU32Vec(out, lane.accounts);
    putU32Vec(out, lane.services);
    putU64Vec(out, lane.created);
    out.putU64(lane.trace_scanned);
    putStringVec(out, lane.routed);
    putStringVec(out, lane.restarted);
    putStringVec(out, lane.spend);
    out.putU64(lane.routed_count);
    out.putF64(lane.spend_checksum);

    // Open-loop streams. Capture happens at a window barrier, where no
    // stream has an event pending, so the state below IS each stream's
    // entire forward state (its span end is origin + the op's span).
    out.putU64(lane.open_loops.size());
    for (const auto &ol : lane.open_loops) {
        const faas::OpenLoopStream &s = ol.stream;
        out.putU64(ol.op_index);
        putRng(out, s.cursor().rngState());
        out.putI64(s.cursor().origin().ns());
        out.putI64(s.cursor().next().ns());
        putRng(out, s.serviceRngState());
        out.putI64(s.nextChurn().ns());
        out.putU64(s.generated());
    }
}

void
Snapshotter::captureObs(const obs::TrialSet &set, SectionWriter &out)
{
    out.putU64(set.slots().size());
    for (const obs::TrialObs &slot : set.slots()) {
        const obs::TraceSink &sink = slot.trace;
        out.putU64(sink.tracks().size());
        for (const char *track : sink.tracks())
            out.putString(track);
        out.putU64(sink.events().size());
        for (const obs::TraceEvent &ev : sink.events()) {
            out.putString(ev.name);
            out.putU32(ev.track);
            out.putU8(static_cast<std::uint8_t>(ev.phase));
            out.putI64(ev.ts.ns());
            out.putI64(ev.dur.ns());
            out.putU64(ev.seq);
            out.putU8(ev.n_args);
            for (std::uint8_t i = 0; i < ev.n_args; ++i) {
                const obs::TraceArg &arg = ev.args[i];
                out.putString(arg.key);
                out.putU8(static_cast<std::uint8_t>(arg.kind));
                out.putU64(arg.u);
                out.putI64(arg.i);
                out.putF64(arg.f);
                out.putString(arg.s);
            }
        }

        const obs::MetricsRegistry &reg = slot.metrics;
        out.putU64(reg.counters().size());
        for (const auto &[name, counter] : reg.counters()) {
            out.putString(name);
            out.putU64(counter.value);
        }
        out.putU64(reg.histograms().size());
        for (const auto &[name, hist] : reg.histograms()) {
            out.putString(name);
            putF64Vec(out, hist.bounds);
            putU64Vec(out, hist.counts);
            out.putU64(hist.count);
            out.putF64(hist.sum);
            out.putF64(hist.min);
            out.putF64(hist.max);
        }
    }
}

std::vector<std::uint8_t>
Snapshotter::capture(const faas::ShardedPlatform &platform)
{
    SnapshotWriter writer;

    const bool has_obs =
        platform.obs_set_ != nullptr && platform.obs_set_->enabled();

    SectionWriter meta;
    meta.putU64(configFingerprint(platform.cfg_));
    meta.putU32(platform.laneCount());
    meta.putU32(platform.fleet_->size());
    meta.putU8(has_obs ? 1 : 0);
    meta.putU32(platform.windows_run_);
    meta.putI64(platform.final_now_.ns());
    meta.putI64(platform.run_horizon_.ns());
    meta.putI64(platform.next_wend_.ns());
    meta.putU8(platform.running_ ? 1 : 0);
    meta.putU8(platform.pending_fold_ ? 1 : 0);
    meta.putU64(platform.acct_map_.size());
    for (const auto &[lane, local] : platform.acct_map_) {
        meta.putU32(lane);
        meta.putU32(local);
    }
    meta.putU64(platform.svc_map_.size());
    for (const auto &[lane, local] : platform.svc_map_) {
        meta.putU32(lane);
        meta.putU32(local);
    }
    putStringVec(meta, platform.exchange_log_);
    writer.addSection(kSectionMeta, meta.take());

    SectionWriter committed;
    putLoadTable(committed, platform.committed_);
    writer.addSection(kSectionCommitted, committed.take());

    // Lane sections serialize independently; build them in parallel
    // and assemble in lane order so the image is byte-identical for
    // any thread count.
    const std::uint32_t lanes = platform.laneCount();
    std::vector<std::vector<std::uint8_t>> lane_payloads(lanes);
    forEachLane(lanes, platform.cfg_.threads, [&](std::uint32_t i) {
        SectionWriter lane;
        captureLane(*platform.lanes_[i], lane);
        lane_payloads[i] = lane.take();
    });
    for (std::uint32_t i = 0; i < lanes; ++i)
        writer.addSection(kSectionLaneBase + i, std::move(lane_payloads[i]));

    if (has_obs) {
        SectionWriter obs;
        captureObs(*platform.obs_set_, obs);
        writer.addSection(kSectionObs, obs.take());
    }

    return writer.finish();
}

// ---------------------------------------------------------------- restore

bool
Snapshotter::restoreLane(SectionReader &in,
                         faas::ShardedPlatform::Lane &lane,
                         bool *omit_one_vcpus_delta, std::string &error)
{
    const auto bail = [&error](const char *what) {
        error = std::string("truncated snapshot: ") + what;
        return false;
    };
    const auto corrupt = [&error](const std::string &what) {
        error = "corrupt snapshot: " + what;
        return false;
    };

    sim::EventQueueImage img;
    if (!getEventQueueImage(in, img))
        return bail("lane event-queue image");
    faas::Orchestrator &orch = *lane.orch;
    const faas::Fleet &fleet = orch.fleet_;
    const std::uint32_t fleet_size = fleet.size();

    sim::RngState rng;
    if (!getRng(in, rng))
        return bail("lane rng state");

    std::uint64_t routing_next_seq = 0;
    if (!in.getU64(routing_next_seq))
        return bail("lane routing counter");

    std::uint64_t n = 0;
    if (!in.getU64(n))
        return bail("lane account table");
    std::vector<faas::AccountRecord> accounts;
    for (std::uint64_t i = 0; i < n; ++i) {
        faas::AccountRecord acct;
        if (!in.getU32(acct.id) || !in.getU32(acct.shard) ||
            !getU32Vec(in, acct.base_order) || !in.getU32(acct.live_count) ||
            !in.getF64(acct.spend_usd) || !in.getU32(acct.quota_per_service))
            return bail("lane account table");
        if (acct.id != i)
            return corrupt("account record " + std::to_string(i) +
                           " carries id " + std::to_string(acct.id));
        // The base order is a permutation of the home shard.
        if (acct.shard >= fleet.shardCount() ||
            acct.base_order.size() != fleet.shardHosts(acct.shard).size() ||
            !distinctMembers(acct.base_order, fleet_size,
                             [&](hw::HostId h) {
                                 return fleet.shardOf(h) == acct.shard;
                             }))
            return corrupt("account " + std::to_string(i) +
                           " base order is not a permutation of its home "
                           "shard");
        accounts.push_back(std::move(acct));
    }

    if (!in.getU64(n))
        return bail("lane service table");
    std::vector<faas::ServiceRecord> services;
    std::vector<faas::AdmissionQueue> admission;
    for (std::uint64_t i = 0; i < n; ++i) {
        faas::ServiceRecord svc;
        std::uint8_t env = 0, size = 0;
        std::uint64_t bursts = 0, creations = 0;
        if (!in.getU32(svc.id) || !in.getU32(svc.account) ||
            !in.getU8(env) || !in.getU8(size) ||
            !in.getU32(svc.max_concurrency) ||
            !getU32Vec(in, svc.helper_order) ||
            !getU32Vec(in, svc.spill_order) || !in.getU64(bursts))
            return bail("lane service table");
        if (env > 1 || !sizeFromIndex(size, svc.size) || svc.id != i ||
            svc.account >= accounts.size()) {
            error = "corrupt snapshot: bad service record";
            return false;
        }
        // Both prefixes list distinct candidates of the account's
        // shard (outside it, or inside under isolate_accounts), and
        // the helper prefix holds at least what a pick reads first.
        const std::uint32_t shard = accounts[svc.account].shard;
        const auto candidate = [&](hw::HostId h) {
            return (fleet.shardOf(h) == shard) == orch.cfg_.isolate_accounts;
        };
        if (!distinctMembers(svc.helper_order, fleet_size, candidate) ||
            !distinctMembers(svc.spill_order, fleet_size, candidate))
            return corrupt("service " + std::to_string(i) +
                           " helper or spill prefix lists a host that is "
                           "not a distinct candidate");
        if (svc.helper_order.size() < orch.helperPrefixFloor(shard))
            return corrupt("service " + std::to_string(i) +
                           " helper prefix is shorter than a pick reads");
        svc.env = static_cast<faas::ExecEnv>(env);
        for (std::uint64_t b = 0; b < bursts; ++b) {
            std::int64_t when = 0;
            std::uint32_t count = 0;
            if (!in.getI64(when) || !in.getU32(count))
                return bail("lane service table");
            svc.bursts.emplace_back(sim::SimTime::fromNanos(when), count);
        }
        if (!in.getU64(creations))
            return bail("lane service table");
        for (std::uint64_t c = 0; c < creations; ++c) {
            std::int64_t when = 0;
            if (!in.getI64(when))
                return bail("lane service table");
            svc.request_creations.push_back(sim::SimTime::fromNanos(when));
        }
        if (!getU64Vec(in, svc.active) || !getU64Vec(in, svc.idle) ||
            !in.getU64(svc.helper_seed) || !in.getU64(svc.requests_served))
            return bail("lane service table");
        faas::AdmissionQueue aq;
        std::uint64_t queued = 0;
        if (!in.getU64(aq.dispatch_event) || !in.getU64(queued))
            return bail("lane admission queue");
        for (std::uint64_t q = 0; q < queued; ++q) {
            std::int64_t at = 0, st = 0;
            if (!in.getI64(at) || !in.getI64(st))
                return bail("lane admission queue");
            aq.q.push_back(
                faas::QueuedRequest{sim::SimTime::fromNanos(at),
                                    sim::Duration::nanos(st)});
        }
        admission.push_back(std::move(aq));
        services.push_back(std::move(svc));
    }

    faas::SloStats slo;
    if (!getHistogram(in, slo.latency_s) ||
        !getHistogram(in, slo.cold_wait_s) || !in.getU64(slo.admitted) ||
        !in.getU64(slo.served_warm) || !in.getU64(slo.queued) ||
        !in.getU64(slo.dispatched) || !in.getU64(slo.rejected) ||
        !in.getU64(slo.shed))
        return bail("lane slo stats");

    if (!in.getU64(n))
        return bail("lane instance table");
    // Instance records are fixed-width on the wire; claim the whole
    // table with one bounds check and decode with unchecked loads.
    // This table dominates the image (every instance ever created),
    // so the per-field checked-getter path was the restore hot spot.
    const std::uint8_t *inst_raw = nullptr;
    if (n > in.remaining() / kInstWire ||
        (inst_raw = in.take(static_cast<std::size_t>(n) * kInstWire)) ==
            nullptr)
        return bail("lane instance table");
    support::BlockVector<faas::InstanceRecord> instances;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint8_t *p = inst_raw + i * kInstWire;
        faas::InstanceRecord inst;
        inst.id = ldLE(p, 8);
        inst.service = ldU32(p + 8);
        inst.account = ldU32(p + 12);
        inst.host = ldU32(p + 16);
        const std::uint8_t size = p[20], env = p[21], state = p[22],
                           has_term = p[59];
        inst.in_flight = ldU32(p + 23);
        inst.active_seconds = ldF64(p + 43);
        inst.vm_tsc_offset = ldLE(p + 51, 8);
        inst.reap_event = ldLE(p + 68, 8);
        inst.route_seq = ldLE(p + 76, 8);
        if (env > 1 || state > 2 || !sizeFromIndex(size, inst.size)) {
            error = "corrupt snapshot: bad instance record";
            return false;
        }
        inst.env = static_cast<faas::ExecEnv>(env);
        inst.state = static_cast<faas::InstanceState>(state);
        inst.created_at = sim::SimTime::fromNanos(ldI64(p + 27));
        inst.state_since = sim::SimTime::fromNanos(ldI64(p + 35));
        if (has_term != 0)
            inst.terminated_at = sim::SimTime::fromNanos(ldI64(p + 60));
        if (inst.id != i || inst.host >= fleet_size ||
            inst.service >= services.size() ||
            inst.account >= accounts.size()) {
            error = "corrupt snapshot: instance record references out "
                    "of range";
            return false;
        }
        instances.push_back(std::move(inst));
    }
    for (const faas::ServiceRecord &svc : services) {
        const auto listed = [&](const std::vector<faas::InstanceId> &ids,
                                faas::InstanceState state) {
            return std::all_of(ids.begin(), ids.end(), [&](auto id) {
                return id < instances.size() &&
                       instances[id].service == svc.id &&
                       instances[id].state == state;
            });
        };
        if (!listed(svc.active, faas::InstanceState::Active) ||
            !listed(svc.idle, faas::InstanceState::Idle))
            return corrupt("service " + std::to_string(svc.id) +
                           " lists an instance that is not its own or "
                           "not in that state");
    }

    // Planted fault 5 strikes the first lane whose delta has entries.
    const bool fault5 =
        omit_one_vcpus_delta != nullptr && *omit_one_vcpus_delta;
    support::HostLoadTable delta;
    if (!getLoadTable(in, fleet_size, fault5, delta, error))
        return false;
    if (fault5 && delta.size() != 0)
        *omit_one_vcpus_delta = false;

    if (!in.getU64(n))
        return bail("lane placement trace");
    // Fixed-width records, same bulk treatment as the instance table.
    const std::uint8_t *trace_raw = nullptr;
    if (n > in.remaining() / kTraceWire ||
        (trace_raw = in.take(static_cast<std::size_t>(n) * kTraceWire)) ==
            nullptr)
        return bail("lane placement trace");
    std::vector<faas::PlacementEvent> trace_events;
    trace_events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint8_t *p = trace_raw + i * kTraceWire;
        faas::PlacementEvent ev;
        const std::uint8_t reason = p[28];
        if (reason >= faas::kPlacementReasonCount) {
            error = "corrupt snapshot: bad placement reason";
            return false;
        }
        ev.when = sim::SimTime::fromNanos(ldI64(p));
        ev.instance = ldLE(p + 8, 8);
        if (ev.instance >= instances.size()) {
            error = "corrupt snapshot: placement trace names an instance "
                    "past the table";
            return false;
        }
        ev.service = ldU32(p + 16);
        ev.account = ldU32(p + 20);
        ev.host = ldU32(p + 24);
        ev.reason = static_cast<faas::PlacementReason>(reason);
        trace_events.push_back(ev);
    }

    if (!in.getU64(n))
        return bail("lane op list");
    std::vector<ShardOp> ops;
    for (std::uint64_t i = 0; i < n; ++i) {
        ShardOp op;
        if (!getOp(in, op))
            return bail("lane op list");
        ops.push_back(op);
    }
    std::uint64_t next_op = 0, storm_index = 0, storm_done = 0;
    std::int64_t storm_t = 0;
    if (!in.getU64(next_op) || !in.getU64(storm_index) ||
        !in.getU64(storm_done) || !in.getI64(storm_t))
        return bail("lane op cursor");
    if (next_op > ops.size() ||
        (storm_index != ~0ULL && storm_index >= ops.size())) {
        error = "corrupt snapshot: lane op cursor out of range";
        return false;
    }

    std::vector<std::uint32_t> lane_accounts, lane_services;
    std::vector<std::uint64_t> lane_created;
    std::uint64_t trace_scanned = 0;
    std::vector<std::string> routed, restarted, spend;
    std::uint64_t routed_count = 0;
    double spend_checksum = 0.0;
    if (!getU32Vec(in, lane_accounts) || !getU32Vec(in, lane_services) ||
        !getU64Vec(in, lane_created) || !in.getU64(trace_scanned) ||
        !getStringVec(in, routed) || !getStringVec(in, restarted) ||
        !getStringVec(in, spend) || !in.getU64(routed_count) ||
        !in.getF64(spend_checksum))
        return bail("lane log buffers");
    const auto below = [](const auto &ids, std::size_t n) {
        return std::all_of(ids.begin(), ids.end(),
                           [n](auto id) { return id < n; });
    };
    if (!below(lane_accounts, accounts.size()) ||
        !below(lane_services, services.size()) ||
        !below(lane_created, instances.size()) ||
        trace_scanned > trace_events.size())
        return corrupt("lane account, service or created list out of "
                       "range");

    std::uint64_t open_loop_count = 0;
    if (!in.getU64(open_loop_count))
        return bail("lane open-loop streams");
    std::deque<faas::ShardedPlatform::Lane::OpenLoop> open_loops;
    for (std::uint64_t i = 0; i < open_loop_count; ++i) {
        std::uint64_t op_index = 0, generated = 0;
        sim::RngState cursor_rng, service_rng;
        std::int64_t origin = 0, next = 0, next_churn = 0;
        if (!in.getU64(op_index) || !getRng(in, cursor_rng) ||
            !in.getI64(origin) || !in.getI64(next) ||
            !getRng(in, service_rng) || !in.getI64(next_churn) ||
            !in.getU64(generated))
            return bail("lane open-loop streams");
        if (op_index >= ops.size() ||
            ops[op_index].kind != ShardOp::Kind::OpenLoop ||
            !(ops[op_index].rate > 0.0)) {
            error = "corrupt snapshot: open-loop stream references a "
                    "non-open-loop op";
            return false;
        }
        // Rebuild the stream from its defining op, then overwrite the
        // draw state (the throwaway seed never surfaces).
        faas::OpenLoopStream s(faas::openLoopSpec(ops[op_index]),
                               sim::Rng(1), sim::SimTime::fromNanos(origin));
        s.restore(cursor_rng, sim::SimTime::fromNanos(next), service_rng,
                  sim::SimTime::fromNanos(next_churn), generated);
        open_loops.push_back({static_cast<std::size_t>(op_index), s});
    }

    if (!in.atEnd()) {
        error = "corrupt snapshot: trailing bytes in lane section";
        return false;
    }

    // Everything parsed; now mutate. Primary records first, then the
    // derived tables, then the event queue (rebind needs nothing from
    // the records at bind time, but keep the dependency order honest).
    orch.rng_.restoreState(rng);
    orch.accounts_ = std::move(accounts);
    orch.services_ = std::move(services);
    orch.instances_ = std::move(instances);
    orch.admission_ = std::move(admission);
    orch.slo_ = std::move(slo);
    orch.rebuildDerivedState(routing_next_seq);
    orch.host_load_ = std::move(delta);

    lane.eq.importImage(img, [&orch](std::uint32_t kind, std::uint64_t arg) {
        return orch.rebindEvent(kind, arg);
    });

    lane.trace.clear();
    for (const faas::PlacementEvent &ev : trace_events)
        lane.trace.record(ev);

    lane.ops = std::move(ops);
    lane.next_op = static_cast<std::size_t>(next_op);
    lane.storm = storm_index != ~0ULL ? lane.ops.data() + storm_index
                                      : nullptr;
    lane.storm_done = storm_done;
    lane.storm_t = sim::SimTime::fromNanos(storm_t);
    lane.accounts = std::move(lane_accounts);
    lane.services = std::move(lane_services);
    lane.created = std::move(lane_created);
    lane.trace_scanned = static_cast<std::size_t>(trace_scanned);
    lane.routed = std::move(routed);
    lane.restarted = std::move(restarted);
    lane.spend = std::move(spend);
    lane.routed_count = routed_count;
    lane.spend_checksum = spend_checksum;
    lane.open_loops = std::move(open_loops);
    return true;
}

bool
Snapshotter::restoreObs(SectionReader &in, obs::TrialSet &set,
                        std::string &error)
{
    const auto bail = [&error](const char *what) {
        error = std::string("truncated snapshot: ") + what;
        return false;
    };

    std::uint64_t slot_count = 0;
    if (!in.getU64(slot_count))
        return bail("obs section");
    if (slot_count != set.slots().size()) {
        error = "corrupt snapshot: obs slot count mismatch";
        return false;
    }

    for (std::uint64_t s = 0; s < slot_count; ++s) {
        obs::TrialObs &slot = set.slots()[static_cast<std::size_t>(s)];
        obs::TraceSink &sink = slot.trace;

        // Serialized strings can't be mapped back to the original
        // literals; intern each distinct string once into sink-owned
        // storage. trackId()/Chrome rendering compare by content, so
        // interned pointers blend with literals recorded after restore.
        std::map<std::string, const char *> interned;
        const auto intern = [&](const std::string &str) {
            auto it = interned.find(str);
            if (it == interned.end())
                it = interned.emplace(str, sink.intern(str)).first;
            return it->second;
        };

        std::uint64_t n = 0;
        if (!in.getU64(n))
            return bail("obs track table");
        std::vector<const char *> tracks;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string track;
            if (!in.getString(track))
                return bail("obs track table");
            tracks.push_back(intern(track));
        }

        if (!in.getU64(n))
            return bail("obs event buffer");
        std::vector<obs::TraceEvent> events;
        for (std::uint64_t i = 0; i < n; ++i) {
            obs::TraceEvent ev;
            std::string name;
            std::uint8_t phase = 0;
            std::int64_t ts = 0, dur = 0;
            if (!in.getString(name) || !in.getU32(ev.track) ||
                !in.getU8(phase) || !in.getI64(ts) || !in.getI64(dur) ||
                !in.getU64(ev.seq) || !in.getU8(ev.n_args))
                return bail("obs event buffer");
            if (ev.track >= tracks.size() ||
                ev.n_args > obs::TraceEvent::kMaxArgs) {
                error = "corrupt snapshot: bad trace event";
                return false;
            }
            ev.name = intern(name);
            ev.phase = static_cast<char>(phase);
            ev.ts = sim::SimTime::fromNanos(ts);
            ev.dur = sim::Duration::nanos(dur);
            for (std::uint8_t a = 0; a < ev.n_args; ++a) {
                obs::TraceArg &arg = ev.args[a];
                std::string key, sval;
                std::uint8_t kind = 0;
                if (!in.getString(key) || !in.getU8(kind) ||
                    !in.getU64(arg.u) || !in.getI64(arg.i) ||
                    !in.getF64(arg.f) || !in.getString(sval))
                    return bail("obs event buffer");
                if (kind > 3) {
                    error = "corrupt snapshot: bad trace arg kind";
                    return false;
                }
                arg.key = intern(key);
                arg.kind = static_cast<obs::TraceArg::Kind>(kind);
                arg.s = intern(sval);
            }
            events.push_back(ev);
        }
        sink.restoreState(std::move(events), std::move(tracks));

        obs::MetricsRegistry &reg = slot.metrics;
        // Zero whatever the target registry accumulated since its
        // construction, then overwrite with the captured values.
        // Handles resolved at orchestrator construction stay valid:
        // the registry's node-based storage never moves.
        for (const auto &[name, counter] : reg.counters())
            reg.counter(name)->value = 0;
        for (const auto &[name, hist] : reg.histograms()) {
            obs::Histogram *h = reg.histogram(name, hist.bounds);
            h->counts.assign(h->bounds.size() + 1, 0);
            h->count = 0;
            h->sum = 0.0;
            h->min = 0.0;
            h->max = 0.0;
        }
        if (!in.getU64(n))
            return bail("obs counter table");
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string name;
            std::uint64_t value = 0;
            if (!in.getString(name) || !in.getU64(value))
                return bail("obs counter table");
            reg.counter(name)->value = value;
        }
        if (!in.getU64(n))
            return bail("obs histogram table");
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string name;
            std::vector<double> bounds;
            std::vector<std::uint64_t> counts;
            std::uint64_t count = 0;
            double sum = 0.0, min = 0.0, max = 0.0;
            if (!in.getString(name) || !getF64Vec(in, bounds) ||
                !getU64Vec(in, counts) || !in.getU64(count) ||
                !in.getF64(sum) || !in.getF64(min) || !in.getF64(max))
                return bail("obs histogram table");
            if (counts.size() != bounds.size() + 1) {
                error = "corrupt snapshot: bad histogram bucket count";
                return false;
            }
            obs::Histogram *h = reg.histogram(name, bounds);
            h->counts = std::move(counts);
            h->count = count;
            h->sum = sum;
            h->min = min;
            h->max = max;
        }
    }
    if (!in.atEnd()) {
        error = "corrupt snapshot: trailing bytes in obs section";
        return false;
    }
    return true;
}

bool
Snapshotter::checkMaps(
    const faas::ShardedPlatform &platform,
    const std::vector<std::pair<std::uint32_t, faas::AccountId>> &acct_map,
    const std::vector<std::pair<std::uint32_t, faas::ServiceId>> &svc_map,
    std::string &error)
{
    const auto &lanes = platform.lanes_;
    for (const auto &[lane, local] : acct_map) {
        if (lane >= lanes.size() ||
            local >= lanes[lane]->orch->accounts_.size()) {
            error = "corrupt snapshot: account map points past its lane";
            return false;
        }
    }
    for (const auto &[lane, local] : svc_map) {
        if (lane >= lanes.size() ||
            local >= lanes[lane]->orch->services_.size()) {
            error = "corrupt snapshot: service map points past its lane";
            return false;
        }
    }
    // Every op must resolve, through the maps, onto the lane that
    // holds it (the partition beginRun made). A storm's spend polls
    // read its account's local id on the storm's own lane.
    for (std::uint32_t i = 0; i < lanes.size(); ++i) {
        for (const ShardOp &op : lanes[i]->ops) {
            const bool by_account = op.kind == ShardOp::Kind::SetQuota ||
                                    op.kind == ShardOp::Kind::Restart ||
                                    op.kind == ShardOp::Kind::SpendProbe;
            const bool on_lane =
                by_account ? op.account < acct_map.size() &&
                                 acct_map[op.account].first == i
                           : op.service < svc_map.size() &&
                                 svc_map[op.service].first == i;
            const bool storm_ok =
                op.kind != ShardOp::Kind::RouteStorm ||
                (op.account < acct_map.size() &&
                 acct_map[op.account].second <
                     lanes[i]->orch->accounts_.size());
            if (!on_lane || !storm_ok) {
                error = "corrupt snapshot: lane " + std::to_string(i) +
                        " holds an op for another lane";
                return false;
            }
        }
    }
    return true;
}

bool
Snapshotter::restore(const std::vector<std::uint8_t> &image,
                     faas::ShardedPlatform &platform, std::string &error)
{
    SnapshotReader reader;
    if (!reader.parse(image, error, platform.cfg_.threads))
        return false;
    return restore(reader, platform, error);
}

bool
Snapshotter::restore(const SnapshotReader &reader,
                     faas::ShardedPlatform &platform, std::string &error)
{
    const SectionView *meta = reader.section(kSectionMeta);
    if (meta == nullptr) {
        error = "corrupt snapshot: missing meta section";
        return false;
    }
    SectionReader m(meta->data, meta->size);

    const auto bail = [&error](const char *what) {
        error = std::string("truncated snapshot: ") + what;
        return false;
    };

    std::uint64_t fingerprint = 0;
    std::uint32_t lane_count = 0, fleet_size = 0, windows_run = 0;
    std::uint8_t has_obs = 0, running = 0, pending_fold = 0;
    std::int64_t final_now = 0, run_horizon = 0, next_wend = 0;
    if (!m.getU64(fingerprint) || !m.getU32(lane_count) ||
        !m.getU32(fleet_size) || !m.getU8(has_obs) ||
        !m.getU32(windows_run) || !m.getI64(final_now) ||
        !m.getI64(run_horizon) || !m.getI64(next_wend) ||
        !m.getU8(running) || !m.getU8(pending_fold))
        return bail("meta section");

    if (fingerprint != configFingerprint(platform.cfg_)) {
        error = "snapshot was captured under a different configuration "
                "(config fingerprint mismatch)";
        return false;
    }
    if (lane_count != platform.laneCount() ||
        fleet_size != platform.fleet_->size()) {
        error = "snapshot lane/fleet shape does not match this platform";
        return false;
    }
    const bool platform_obs =
        platform.obs_set_ != nullptr && platform.obs_set_->enabled();
    if ((has_obs != 0) != platform_obs) {
        error = has_obs != 0
                    ? "snapshot carries observability state but the "
                      "restore platform has none attached"
                    : "restore platform has observability attached but "
                      "the snapshot carries none";
        return false;
    }

    std::uint64_t n = 0;
    if (!m.getU64(n))
        return bail("meta account map");
    std::vector<std::pair<std::uint32_t, faas::AccountId>> acct_map;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t lane = 0, local = 0;
        if (!m.getU32(lane) || !m.getU32(local))
            return bail("meta account map");
        acct_map.emplace_back(lane, local);
    }
    if (!m.getU64(n))
        return bail("meta service map");
    std::vector<std::pair<std::uint32_t, faas::ServiceId>> svc_map;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t lane = 0, local = 0;
        if (!m.getU32(lane) || !m.getU32(local))
            return bail("meta service map");
        svc_map.emplace_back(lane, local);
    }
    std::vector<std::string> exchange_log;
    if (!getStringVec(m, exchange_log))
        return bail("meta exchange log");
    if (!m.atEnd()) {
        error = "corrupt snapshot: trailing bytes in meta section";
        return false;
    }

    const SectionView *committed = reader.section(kSectionCommitted);
    if (committed == nullptr) {
        error = "corrupt snapshot: missing committed-load section";
        return false;
    }
    SectionReader c(committed->data, committed->size);
    support::HostLoadTable committed_load;
    if (!getLoadTable(c, fleet_size, false, committed_load, error))
        return false;
    if (!c.atEnd()) {
        error = "corrupt snapshot: trailing bytes in committed-load section";
        return false;
    }

    bool omit_vcpus_delta =
        platform.cfg_.orchestrator.fault_injection == 5;
    std::vector<const SectionView *> lane_sections(lane_count);
    for (std::uint32_t i = 0; i < lane_count; ++i) {
        lane_sections[i] = reader.section(kSectionLaneBase + i);
        if (lane_sections[i] == nullptr) {
            std::ostringstream msg;
            msg << "corrupt snapshot: missing lane " << i << " section";
            error = msg.str();
            return false;
        }
    }
    // Restore lanes in parallel (disjoint state). The fault-5 victim
    // pick needs "first lane with a non-empty delta" to be
    // well-defined, so that mode stays serial; everywhere else the
    // shared omit flag is false and only ever read.
    const unsigned restore_threads =
        omit_vcpus_delta ? 1u : platform.cfg_.threads;
    std::vector<std::string> lane_errors(lane_count);
    std::vector<std::uint8_t> lane_ok(lane_count, 1);
    forEachLane(lane_count, restore_threads, [&](std::uint32_t i) {
        SectionReader lane(lane_sections[i]->data, lane_sections[i]->size);
        lane_ok[i] = restoreLane(lane, *platform.lanes_[i],
                                 &omit_vcpus_delta, lane_errors[i])
                         ? 1
                         : 0;
    });
    for (std::uint32_t i = 0; i < lane_count; ++i) {
        if (lane_ok[i] == 0) {
            error = lane_errors[i];
            return false;
        }
    }
    if (!checkMaps(platform, acct_map, svc_map, error))
        return false;

    if (has_obs != 0) {
        const SectionView *payload = reader.section(kSectionObs);
        if (payload == nullptr) {
            error = "corrupt snapshot: missing obs section";
            return false;
        }
        SectionReader obs(payload->data, payload->size);
        if (!restoreObs(obs, *platform.obs_set_, error))
            return false;
    }

    platform.committed_ = std::move(committed_load);
    platform.acct_map_ = std::move(acct_map);
    platform.svc_map_ = std::move(svc_map);
    platform.exchange_log_ = std::move(exchange_log);
    platform.windows_run_ = windows_run;
    platform.final_now_ = sim::SimTime::fromNanos(final_now);
    platform.run_horizon_ = sim::SimTime::fromNanos(run_horizon);
    platform.next_wend_ = sim::SimTime::fromNanos(next_wend);
    platform.running_ = running != 0;
    platform.pending_fold_ = pending_fold != 0;
    return true;
}

// ------------------------------------------------------------------ files

bool
Snapshotter::writeFile(const std::string &path,
                       const std::vector<std::uint8_t> &image,
                       std::string &error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out) {
        error = "short write to " + path;
        return false;
    }
    return true;
}

bool
Snapshotter::readFile(const std::string &path,
                      std::vector<std::uint8_t> &image, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    if (in.bad()) {
        error = "read error on " + path;
        return false;
    }
    return true;
}

} // namespace eaao::snap
