/**
 * @file
 * Implementation of co-location verification.
 */

#include "core/verify.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "support/logging.hpp"

namespace eaao::core {

namespace {

/** Record one finished verification run (span + counters). */
void
recordVerify(faas::Platform &platform, const char *name,
             sim::SimTime start, std::size_t instances,
             const VerifyResult &out)
{
    const obs::Observer obs = platform.obs();
    if (obs.metrics != nullptr) {
        obs.metrics->counter("verify.runs")->add();
        obs.metrics->counter("verify.group_tests")->add(out.group_tests);
        obs.metrics->counter("verify.waves")->add(out.waves);
    }
    if (obs.trace != nullptr) {
        obs.trace->complete(
            name, "verify", start, platform.now(),
            {obs::TraceArg::u64("instances", instances),
             obs::TraceArg::u64("tests", out.group_tests),
             obs::TraceArg::u64("waves", out.waves),
             obs::TraceArg::u64("clusters", out.clusterCount()),
             obs::TraceArg::f64("cost_usd", out.cost_usd)});
    }
}

/** Minimal union-find over instance indices. */
class Dsu
{
  public:
    explicit Dsu(std::size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    merge(std::size_t a, std::size_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent_[std::max(a, b)] = std::min(a, b);
    }

  private:
    std::vector<std::size_t> parent_;
};

/** Billing rate summed over the instances under test. */
double
combinedUsdPerSecond(const faas::Platform &platform,
                     const std::vector<faas::InstanceId> &ids)
{
    const auto &pricing = platform.orchestrator().pricing();
    double rate = 0.0;
    for (const faas::InstanceId id : ids)
        rate += pricing.usdPerActiveSecond(platform.instanceInfo(id).size);
    return rate;
}

/**
 * Shared mutable state of one scalable verification run.
 *
 * The resolution fallback used to copy member vectors at every
 * recursion level and build a fresh `std::map` of cluster
 * representatives per merge. It now recurses over `[lo, hi)` ranges of
 * one scratch index arena: a split is two subranges of the same
 * storage, partition survivors are appended above the current top and
 * truncated on unwind (ranges are never reordered in place — an
 * ancestor's merge step must see its members in the original order,
 * because the first member of a cluster becomes its test
 * representative, and a different representative would change the
 * covert-channel group composition and thus its RNG draws). All group
 * and representative buffers are reused across calls.
 */
struct Run
{
    faas::Platform *platform;
    channel::RngChannel *chan;
    const std::vector<faas::InstanceId> *ids;
    VerifyOptions opts;
    Dsu dsu;
    std::uint64_t tests = 0;
    std::uint64_t waves = 0;

    Run(faas::Platform &p, channel::RngChannel &c,
        const std::vector<faas::InstanceId> &i, const VerifyOptions &o)
        : platform(&p), chan(&c), ids(&i), dsu(i.size())
    {
        opts = o;
        seen_.assign(i.size(), 0);
        arena_.reserve(2 * i.size());
        group_.reserve(i.size());
    }

    /** Run one serialized group test over member indices. */
    channel::GroupTestResult
    test(const std::size_t *members, std::size_t count, std::uint32_t m)
    {
        group_.clear();
        for (std::size_t i = 0; i < count; ++i)
            group_.push_back((*ids)[members[i]]);
        ++tests;
        ++waves;
        return chan->run(group_, m);
    }

    channel::GroupTestResult
    test(const std::vector<std::size_t> &members, std::uint32_t m)
    {
        return test(members.data(), members.size(), m);
    }

    /**
     * Threshold for a one-shot test of @p g members: the smallest m
     * with 2m-1 >= g, so that an all-positive outcome proves a single
     * shared host. Never below the base m.
     */
    std::uint32_t
    oneShotThreshold(std::size_t g) const
    {
        const auto needed =
            static_cast<std::uint32_t>((g + 2) / 2); // ceil((g+1)/2)
        return std::clamp(needed, opts.m, opts.m_max);
    }

    /**
     * Resolve a set of possibly co-located members into clusters
     * (sequential tests; used on the uncommon fallback paths).
     */
    void
    resolve(const std::vector<std::size_t> &members)
    {
        const std::size_t lo = arena_.size();
        arena_.insert(arena_.end(), members.begin(), members.end());
        resolveRange(lo, arena_.size());
        arena_.resize(lo);
    }

    void
    mergeAcross(const std::vector<std::size_t> &members)
    {
        mergeAcrossSpan(members.data(), members.size());
    }

  private:
    void
    resolveRange(std::size_t lo, std::size_t hi)
    {
        const std::size_t count = hi - lo;
        if (count <= 1)
            return;
        if (count > 2ULL * opts.m_max - 1) {
            // Too large for one test: split, resolve halves, merge.
            // The recursion only appends above the current arena top
            // (and truncates on return), so both halves are intact for
            // the merge step.
            const std::size_t mid = lo + count / 2;
            resolveRange(lo, mid);
            resolveRange(mid, hi);
            mergeAcrossSpan(arena_.data() + lo, count);
            return;
        }

        const std::uint32_t m = oneShotThreshold(count);
        const auto result = test(arena_.data() + lo, count, m);
        std::size_t n_pos = 0;
        for (std::size_t i = 0; i < count; ++i)
            n_pos += result.positive[i] ? 1 : 0;

        if (n_pos >= m) {
            // The positives share one host (m <= |P| <= 2m-1). Merge
            // them in place, then resolve the negatives from a fresh
            // range appended above the top.
            std::size_t anchor = count; // first positive
            const std::size_t neg_lo = arena_.size();
            for (std::size_t i = 0; i < count; ++i) {
                const std::size_t idx = arena_[lo + i];
                if (result.positive[i]) {
                    if (anchor == count)
                        anchor = idx;
                    else
                        dsu.merge(anchor, idx);
                } else {
                    arena_.push_back(idx);
                }
            }
            resolveRange(neg_lo, arena_.size());
            arena_.resize(neg_lo);
            return;
        }
        if (n_pos > 0) {
            eaao::warn("anomalous covert-channel outcome: ", n_pos,
                       " positives below threshold ", m);
        }
        // No host holds >= m members: split and recurse with a lower
        // threshold; merging handles co-location across the halves.
        if (count <= 2) {
            // Two members that tested negative at m=2 are not
            // co-located; nothing further to learn.
            return;
        }
        if (m == opts.m) {
            // Already at the base threshold and nothing met it: every
            // member saw fewer than m units, i.e. no two members share
            // a host. Done.
            return;
        }
        const std::size_t mid = lo + count / 2;
        resolveRange(lo, mid);
        resolveRange(mid, hi);
        mergeAcrossSpan(arena_.data() + lo, count);
    }

    /**
     * Merge clusters among @p members: one representative per current
     * cluster, one all-at-once base-threshold test, then pairwise
     * refinement of the positives. The representative of a cluster is
     * its first member in @p members order; representatives are tested
     * in ascending-root order (both as the old std::map produced).
     */
    void
    mergeAcrossSpan(const std::size_t *members, std::size_t count)
    {
        ++epoch_;
        reps_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t idx = members[i];
            const std::size_t root = dsu.find(idx);
            if (seen_[root] != epoch_) {
                seen_[root] = epoch_;
                reps_.push_back({root, idx});
            }
        }
        if (reps_.size() < 2)
            return;
        std::sort(reps_.begin(), reps_.end()); // roots are unique
        rep_members_.clear();
        for (const auto &[root, rep] : reps_)
            rep_members_.push_back(rep);

        const auto result =
            test(rep_members_.data(), rep_members_.size(), opts.m);
        positives_.clear();
        for (std::size_t i = 0; i < rep_members_.size(); ++i) {
            if (result.positive[i])
                positives_.push_back(rep_members_[i]);
        }
        if (positives_.size() < 2)
            return;
        if (positives_.size() == 2) {
            dsu.merge(positives_[0], positives_[1]);
            return;
        }
        for (std::size_t i = 0; i < positives_.size(); ++i) {
            for (std::size_t j = i + 1; j < positives_.size(); ++j) {
                if (dsu.find(positives_[i]) == dsu.find(positives_[j]))
                    continue;
                const std::size_t pair[2] = {positives_[i],
                                             positives_[j]};
                const auto pair_result = test(pair, 2, opts.m);
                if (pair_result.positive[0] && pair_result.positive[1])
                    dsu.merge(positives_[i], positives_[j]);
            }
        }
    }

    /** Scratch member-index arena; resolveRange ranges live here. */
    std::vector<std::size_t> arena_;
    std::vector<faas::InstanceId> group_;  //!< reused test group
    std::vector<std::uint64_t> seen_;      //!< epoch stamp per root
    std::uint64_t epoch_ = 0;
    /** (root, first member) per cluster — replaces the per-call map. */
    std::vector<std::pair<std::size_t, std::size_t>> reps_;
    std::vector<std::size_t> rep_members_; //!< reps in root order
    std::vector<std::size_t> positives_;   //!< merge-test positives
};

} // namespace

std::size_t
VerifyResult::clusterCount() const
{
    std::unordered_map<std::uint64_t, bool> seen;
    for (const auto label : cluster_of)
        seen[label] = true;
    return seen.size();
}

VerifyResult
verifyScalable(faas::Platform &platform, channel::RngChannel &chan,
               const std::vector<faas::InstanceId> &ids,
               const std::vector<std::uint64_t> &fp_keys,
               const std::vector<std::uint64_t> &parallel_class,
               const VerifyOptions &opts)
{
    EAAO_ASSERT(ids.size() == fp_keys.size(), "ids/keys size mismatch");
    EAAO_ASSERT(parallel_class.empty() ||
                    parallel_class.size() == ids.size(),
                "ids/class size mismatch");
    const sim::SimTime start = platform.now();
    const std::uint64_t tests_before = chan.testsRun();

    Run run(platform, chan, ids, opts);

    // Step 1: group by fingerprint.
    std::map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < ids.size(); ++i)
        groups[fp_keys[i]].push_back(i);

    // Step 2: one-shot tests per group (chunked if oversized), batched
    // into waves of host-disjoint classes when parallelism is allowed.
    struct Chunk
    {
        std::vector<std::size_t> members;
        std::uint32_t m;
        std::uint64_t cls;
    };
    std::vector<Chunk> chunks;
    std::vector<std::vector<std::size_t>> oversized_groups;
    for (const auto &[key, members] : groups) {
        if (members.size() < 2)
            continue;
        const std::size_t chunk_cap = 2ULL * opts.m_max - 1;
        const std::uint64_t cls =
            parallel_class.empty() ? 0 : parallel_class[members.front()];
        if (members.size() <= chunk_cap) {
            chunks.push_back(
                {members, run.oneShotThreshold(members.size()), cls});
        } else {
            // Oversized groups take the sequential fallback path.
            oversized_groups.push_back(members);
        }
    }

    // Queue chunks per class and execute wave by wave.
    std::map<std::uint64_t, std::vector<std::size_t>> class_queues;
    for (std::size_t c = 0; c < chunks.size(); ++c)
        class_queues[chunks[c].cls].push_back(c);

    std::vector<std::vector<std::size_t>> leftovers;
    std::vector<std::size_t> pos, neg; // reused across chunks
    bool work_left = true;
    std::size_t wave_idx = 0;
    while (work_left) {
        work_left = false;
        std::vector<std::size_t> wave;
        for (auto &[cls, queue] : class_queues) {
            if (wave_idx < queue.size()) {
                wave.push_back(queue[wave_idx]);
                if (!opts.parallelize)
                    break;
            }
        }
        if (!opts.parallelize) {
            // Serialized mode: drain queues one chunk at a time.
            wave.clear();
            for (auto &[cls, queue] : class_queues) {
                for (const std::size_t c : queue)
                    wave.push_back(c);
            }
            // Execute each alone.
            for (const std::size_t c : wave) {
                const auto result =
                    run.test(chunks[c].members, chunks[c].m);
                pos.clear();
                neg.clear();
                for (std::size_t i = 0; i < chunks[c].members.size();
                     ++i) {
                    (result.positive[i] ? pos : neg)
                        .push_back(chunks[c].members[i]);
                }
                if (pos.size() >= chunks[c].m) {
                    for (std::size_t i = 1; i < pos.size(); ++i)
                        run.dsu.merge(pos[0], pos[i]);
                    if (neg.size() > 1)
                        leftovers.push_back(neg);
                } else if (chunks[c].members.size() > 1) {
                    leftovers.push_back(chunks[c].members);
                }
            }
            break;
        }
        if (wave.empty())
            break;
        work_left = true;
        ++wave_idx;

        // One concurrent batch: at most one chunk per class.
        std::vector<std::vector<faas::InstanceId>> batch;
        batch.reserve(wave.size());
        for (const std::size_t c : wave) {
            std::vector<faas::InstanceId> g;
            g.reserve(chunks[c].members.size());
            for (const std::size_t idx : chunks[c].members)
                g.push_back(ids[idx]);
            batch.push_back(std::move(g));
        }
        // All chunks in a wave share one threshold requirement? No —
        // thresholds differ per chunk; the channel applies m per group.
        // Run groups with equal m together; split by m value.
        std::map<std::uint32_t, std::vector<std::size_t>> by_m;
        for (std::size_t w = 0; w < wave.size(); ++w)
            by_m[chunks[wave[w]].m].push_back(w);
        for (const auto &[m, widx] : by_m) {
            std::vector<std::vector<faas::InstanceId>> sub;
            sub.reserve(widx.size());
            for (const std::size_t w : widx)
                sub.push_back(batch[w]);
            EAAO_OBS_INSTANT(platform.obs(), "verify.wave", "verify",
                             platform.now(),
                             {obs::TraceArg::u64("wave", wave_idx),
                              obs::TraceArg::u64("groups", widx.size()),
                              obs::TraceArg::u64("m", m)});
            const auto results = run.chan->runConcurrent(sub, m);
            run.tests += results.size();
            ++run.waves;
            for (std::size_t k = 0; k < widx.size(); ++k) {
                const Chunk &chunk = chunks[wave[widx[k]]];
                pos.clear();
                neg.clear();
                for (std::size_t i = 0; i < chunk.members.size(); ++i) {
                    (results[k].positive[i] ? pos : neg)
                        .push_back(chunk.members[i]);
                }
                if (pos.size() >= chunk.m) {
                    for (std::size_t i = 1; i < pos.size(); ++i)
                        run.dsu.merge(pos[0], pos[i]);
                    if (neg.size() > 1)
                        leftovers.push_back(neg);
                } else if (chunk.members.size() > 1) {
                    leftovers.push_back(chunk.members);
                }
            }
        }
    }

    // Fallback resolution of inconclusive chunks and oversized groups
    // (rare: only fingerprints with false positives land here).
    for (const auto &members : leftovers)
        run.resolve(members);
    for (const auto &members : oversized_groups)
        run.resolve(members);

    // Step 3: find false negatives with one all-representatives test.
    if (!opts.no_false_negatives && ids.size() >= 2) {
        std::vector<std::size_t> all(ids.size());
        std::iota(all.begin(), all.end(), 0);
        run.mergeAcross(all);
    }

    VerifyResult out;
    out.cluster_of.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        out.cluster_of[i] = static_cast<std::uint64_t>(run.dsu.find(i));
    out.group_tests = chan.testsRun() - tests_before;
    out.waves = run.waves;
    out.elapsed = platform.now() - start;
    out.cost_usd =
        combinedUsdPerSecond(platform, ids) * out.elapsed.secondsF();
    recordVerify(platform, "verify.scalable", start, ids.size(), out);
    return out;
}

VerifyResult
verifyPairwise(faas::Platform &platform, channel::RngChannel &pair_channel,
               const std::vector<faas::InstanceId> &ids)
{
    const sim::SimTime start = platform.now();
    const std::uint64_t tests_before = pair_channel.testsRun();
    Dsu dsu(ids.size());

    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t j = i + 1; j < ids.size(); ++j) {
            const auto result = pair_channel.run({ids[i], ids[j]}, 2);
            if (result.positive[0] && result.positive[1])
                dsu.merge(i, j);
        }
    }

    VerifyResult out;
    out.cluster_of.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        out.cluster_of[i] = static_cast<std::uint64_t>(dsu.find(i));
    out.group_tests = pair_channel.testsRun() - tests_before;
    out.waves = out.group_tests;
    out.elapsed = platform.now() - start;
    out.cost_usd =
        combinedUsdPerSecond(platform, ids) * out.elapsed.secondsF();
    recordVerify(platform, "verify.pairwise", start, ids.size(), out);
    return out;
}

VerifyResult
verifyPairwiseMemBus(faas::Platform &platform, channel::MemBusChannel &chan,
                     const std::vector<faas::InstanceId> &ids)
{
    const sim::SimTime start = platform.now();
    const std::uint64_t tests_before = chan.testsRun();
    Dsu dsu(ids.size());

    // The mem-bus channel has a non-trivial false-positive rate; a
    // single false merge poisons two clusters transitively, so each
    // positive screen is confirmed by two retests (all three must
    // agree) before merging.
    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t j = i + 1; j < ids.size(); ++j) {
            if (!chan.testPair(ids[i], ids[j]))
                continue;
            if (chan.testPair(ids[i], ids[j]) &&
                chan.testPair(ids[i], ids[j])) {
                dsu.merge(i, j);
            }
        }
    }

    VerifyResult out;
    out.cluster_of.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        out.cluster_of[i] = static_cast<std::uint64_t>(dsu.find(i));
    out.group_tests = chan.testsRun() - tests_before;
    out.waves = out.group_tests;
    out.elapsed = platform.now() - start;
    out.cost_usd =
        combinedUsdPerSecond(platform, ids) * out.elapsed.secondsF();
    recordVerify(platform, "verify.membus", start, ids.size(), out);
    return out;
}

std::vector<std::size_t>
singleInstanceElimination(faas::Platform &platform,
                          channel::RngChannel &chan,
                          const std::vector<faas::InstanceId> &ids,
                          std::uint32_t m)
{
    (void)platform;
    const auto result = chan.run(ids, m);
    std::vector<std::size_t> survivors;
    survivors.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (result.positive[i])
            survivors.push_back(i);
    }
    return survivors;
}

} // namespace eaao::core
