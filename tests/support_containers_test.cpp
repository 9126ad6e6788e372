/**
 * @file
 * Property tests for the containers backing the orchestrator's hot
 * paths: SmallFlatMap against std::map, MinLoadTree against
 * brute-force scans, the routing index's per-service slot tournaments
 * against the reference route scan, under long random operation
 * sequences, and BlockVector (the instance table) against std::vector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "faas/routing_index.hpp"
#include "sim/rng.hpp"
#include "support/block_vector.hpp"
#include "support/flat_map.hpp"
#include "support/min_load_tree.hpp"

namespace eaao::support {
namespace {

TEST(SmallFlatMapProperty, MatchesStdMapOverRandomOps)
{
    sim::Rng rng(2024);
    SmallFlatMap<std::uint32_t, std::uint64_t> flat;
    std::map<std::uint32_t, std::uint64_t> model;

    // A small key universe forces plenty of hits, overwrites and
    // erase-then-reinsert slot churn.
    constexpr std::uint32_t kKeys = 64;
    for (int op = 0; op < 10'000; ++op) {
        const auto key = static_cast<std::uint32_t>(rng.uniformInt(kKeys));
        switch (rng.uniformInt(4)) {
        case 0: { // default-insert / overwrite via operator[]
            const std::uint64_t value = rng();
            flat[key] = value;
            model[key] = value;
            break;
        }
        case 1: { // read-modify-write via operator[]
            flat[key] += 1;
            model[key] += 1;
            break;
        }
        case 2: { // find
            const auto fit = flat.find(key);
            const auto mit = model.find(key);
            ASSERT_EQ(fit == flat.end(), mit == model.end())
                << "op " << op << " key " << key;
            if (mit != model.end()) {
                ASSERT_EQ(fit->second, mit->second);
            }
            break;
        }
        default: { // erase
            ASSERT_EQ(flat.erase(key), model.erase(key) == 1)
                << "op " << op << " key " << key;
            break;
        }
        }
        ASSERT_EQ(flat.size(), model.size());
    }

    // Final sweep: identical contents in identical (sorted) order.
    auto mit = model.begin();
    for (const auto &[key, value] : flat) {
        ASSERT_NE(mit, model.end());
        EXPECT_EQ(key, mit->first);
        EXPECT_EQ(value, mit->second);
        ++mit;
    }
    EXPECT_EQ(mit, model.end());
}

TEST(SmallFlatMapProperty, IterationStaysSorted)
{
    sim::Rng rng(7);
    SmallFlatMap<std::uint64_t, int> flat;
    for (int i = 0; i < 500; ++i)
        flat[rng()] = i;
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto &[key, value] : flat) {
        (void)value;
        if (!first) {
            EXPECT_LT(prev, key);
        }
        prev = key;
        first = false;
    }
}

/** Brute-force reference for MinLoadTree::minInPrefix. */
template <typename Accept>
std::optional<std::size_t>
referenceMinInPrefix(const std::vector<std::uint32_t> &loads,
                     std::size_t prefix, Accept &&accept)
{
    prefix = std::min(prefix, loads.size());
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < prefix; ++i) {
        if (!accept(i))
            continue;
        if (!best || loads[i] < loads[*best])
            best = i; // first position with strictly minimal load wins
    }
    return best;
}

/** Brute-force reference for MinLoadTree::firstMinBelow. */
std::optional<std::size_t>
referenceFirstMinBelow(const std::vector<std::uint32_t> &loads,
                       std::uint32_t bound)
{
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        if (loads[i] < bound && (!best || loads[i] < loads[*best]))
            best = i;
    }
    return best;
}

TEST(MinLoadTreeProperty, MatchesBruteForceOverRandomOps)
{
    sim::Rng rng(5150);
    constexpr std::size_t kPositions = 97; // non-power-of-two on purpose
    std::vector<std::uint32_t> loads(kPositions);
    for (std::uint32_t &l : loads)
        l = static_cast<std::uint32_t>(rng.uniformInt(12));

    MinLoadTree tree;
    tree.assign(loads);
    ASSERT_EQ(tree.size(), kPositions);

    // Capacity predicate of the placement path: some positions are
    // "full" and must be skipped even when they carry the minimum.
    std::vector<bool> full(kPositions, false);

    for (int op = 0; op < 10'000; ++op) {
        switch (rng.uniformInt(4)) {
        case 0: { // load update
            const auto pos =
                static_cast<std::size_t>(rng.uniformInt(kPositions));
            const auto load =
                static_cast<std::uint32_t>(rng.uniformInt(12));
            loads[pos] = load;
            tree.update(pos, load);
            break;
        }
        case 1: { // flip a position's capacity
            const auto pos =
                static_cast<std::size_t>(rng.uniformInt(kPositions));
            full[pos] = !full[pos];
            break;
        }
        case 2: { // query a random prefix (incl. 0 and > size)
            const auto prefix =
                static_cast<std::size_t>(rng.uniformInt(kPositions + 10));
            const auto accept = [&](std::size_t i) { return !full[i]; };
            ASSERT_EQ(tree.minInPrefix(prefix, accept),
                      referenceMinInPrefix(loads, prefix, accept))
                << "op " << op << " prefix " << prefix;
            break;
        }
        default: { // first minimal position below a random bound
            const auto bound =
                static_cast<std::uint32_t>(rng.uniformInt(14));
            ASSERT_EQ(tree.firstMinBelow(bound),
                      referenceFirstMinBelow(loads, bound))
                << "op " << op << " bound " << bound;
            // At the minimum nothing qualifies; one above, it does.
            const std::uint32_t min =
                *std::min_element(loads.begin(), loads.end());
            ASSERT_EQ(tree.firstMinBelow(min), std::nullopt) << "op " << op;
            ASSERT_EQ(tree.firstMinBelow(min + 1),
                      referenceFirstMinBelow(loads, min + 1))
                << "op " << op;
            break;
        }
        }
    }

    // Vacate every position, one leaf at a time (routing's remove):
    // an all-padding tree has no minimum below any bound.
    for (std::size_t pos = 0; pos < kPositions; ++pos) {
        tree.update(pos, MinLoadTree::kInf);
        loads[pos] = MinLoadTree::kInf;
        ASSERT_EQ(tree.firstMinBelow(12), referenceFirstMinBelow(loads, 12))
            << "vacated through " << pos;
    }
    EXPECT_EQ(tree.firstMinBelow(MinLoadTree::kInf), std::nullopt);
}

TEST(MinLoadTreeProperty, EmptyAndDegenerateCases)
{
    MinLoadTree tree;
    const auto any = [](std::size_t) { return true; };
    EXPECT_EQ(tree.minInPrefix(5, any), std::nullopt);
    EXPECT_EQ(tree.firstMinBelow(5), std::nullopt);

    tree.assign({3});
    EXPECT_EQ(tree.minInPrefix(0, any), std::nullopt);
    EXPECT_EQ(tree.minInPrefix(1, any), std::optional<std::size_t>{0});
    EXPECT_EQ(tree.minInPrefix(99, any), std::optional<std::size_t>{0});
    const auto none = [](std::size_t) { return false; };
    EXPECT_EQ(tree.minInPrefix(1, none), std::nullopt);

    EXPECT_EQ(tree.firstMinBelow(4), std::optional<std::size_t>{0});
    EXPECT_EQ(tree.firstMinBelow(3), std::nullopt);

    // Ties break toward the first position, matching a linear scan.
    tree.assign({5, 5, 5});
    EXPECT_EQ(tree.minInPrefix(3, any), std::optional<std::size_t>{0});
    EXPECT_EQ(tree.firstMinBelow(6), std::optional<std::size_t>{0});
    const auto skip0 = [](std::size_t i) { return i != 0; };
    EXPECT_EQ(tree.minInPrefix(3, skip0), std::optional<std::size_t>{1});
}

/** One active instance of the routing model, in activation order. */
struct RoutedInstance
{
    faas::InstanceId id;
    std::uint32_t in_flight;
};

/**
 * testkit::referenceWarmTarget's rule over @p active: the first
 * instance in activation order with the minimal in_flight below
 * @p limit.
 */
faas::InstanceId
referenceLeastLoaded(const std::vector<RoutedInstance> &active,
                     std::uint32_t limit)
{
    faas::InstanceId best = faas::kNoInstance;
    std::uint32_t best_load = 0;
    for (const RoutedInstance &r : active) {
        if (r.in_flight < limit &&
            (best == faas::kNoInstance || r.in_flight < best_load)) {
            best = r.id;
            best_load = r.in_flight;
        }
    }
    return best;
}

TEST(RoutingIndexProperty, MatchesReferenceScanOverRandomOps)
{
    sim::Rng rng(0x20a7);
    constexpr std::uint32_t kServices = 5;
    faas::RoutingIndex index;
    // Per service: active instances in activation order, and the ids
    // that went idle (an idle instance reactivates under a fresh seq).
    std::vector<std::vector<RoutedInstance>> active(kServices);
    std::vector<std::vector<faas::InstanceId>> idle(kServices);
    std::map<faas::InstanceId, std::uint64_t> seq_of; //!< latest key
    faas::InstanceId next_id = 0;
    std::uint64_t last_seq = 0;
    std::size_t indexed = 0;

    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(std::uint64_t{n}));
    };

    // Slot-table compactions per service before the restore, and
    // counted from just after it.
    std::vector<std::uint64_t> before(kServices), restored(kServices);

    for (int op = 0; op < 10'000; ++op) {
        const auto svc = static_cast<faas::ServiceId>(pick(kServices));
        std::vector<RoutedInstance> &act = active[svc];
        if (op == 5'000) {
            // Checkpoint restore: same next seq, entries handed over
            // in shuffled order with their original keys.
            std::vector<faas::RoutingIndex::Restored> all;
            for (faas::ServiceId s = 0; s < kServices; ++s) {
                before[s] = index.compactions(s);
                for (const RoutedInstance &r : active[s])
                    all.push_back({s, r.id, r.in_flight, seq_of[r.id]});
            }
            for (std::size_t i = all.size(); i > 1; --i)
                std::swap(all[i - 1], all[pick(i)]);
            index.restore(index.nextSeq(), all);
            ASSERT_EQ(index.size(), indexed);
            for (faas::ServiceId s = 0; s < kServices; ++s)
                restored[s] = index.compactions(s);
        }
        // Service 0 churns: half its ops activate or deactivate.
        std::size_t action = pick(6);
        if (svc == 0 && rng.bernoulli(0.5))
            action = rng.bernoulli(0.5) ? 0 : 3;
        switch (action) {
        case 0: { // activate: a fresh instance or an idle one
            faas::InstanceId id = next_id;
            if (!idle[svc].empty() && rng.bernoulli(0.5)) {
                const std::size_t k = pick(idle[svc].size());
                id = idle[svc][k];
                idle[svc].erase(idle[svc].begin() +
                                static_cast<std::ptrdiff_t>(k));
            } else {
                ++next_id;
            }
            const auto load = static_cast<std::uint32_t>(pick(3));
            const std::uint64_t seq = index.add(svc, id, load);
            ASSERT_GT(seq, last_seq);
            last_seq = seq;
            seq_of[id] = seq;
            act.push_back(RoutedInstance{id, load});
            ++indexed;
            break;
        }
        case 1:
        case 2: { // a request starts or completes
            if (act.empty())
                break;
            RoutedInstance &r = act[pick(act.size())];
            if (r.in_flight > 0 && rng.bernoulli(0.5))
                --r.in_flight;
            else
                ++r.in_flight;
            index.reindex(svc, r.id, r.in_flight);
            break;
        }
        case 3: { // deactivate
            if (act.empty())
                break;
            const std::size_t k = pick(act.size());
            index.remove(svc, act[k].id);
            idle[svc].push_back(act[k].id);
            act.erase(act.begin() + static_cast<std::ptrdiff_t>(k));
            --indexed;
            break;
        }
        default: { // route at a varying concurrency limit
            const auto limit = static_cast<std::uint32_t>(1 + pick(6));
            ASSERT_EQ(index.leastLoaded(svc, limit),
                      referenceLeastLoaded(act, limit))
                << "op " << op << " service " << svc << " limit " << limit;
            break;
        }
        }
        ASSERT_EQ(index.size(), indexed) << "op " << op;
    }
    // Final sweep: every service at every limit.
    for (faas::ServiceId s = 0; s < kServices; ++s) {
        for (std::uint32_t limit = 1; limit <= 8; ++limit)
            EXPECT_EQ(index.leastLoaded(s, limit),
                      referenceLeastLoaded(active[s], limit));
        // Every service's slots were renumbered repeatedly on both
        // sides of the restore, under the routes checked above.
        EXPECT_GE(before[s], 3u) << "service " << s;
        EXPECT_GE(index.compactions(s) - restored[s], 3u) << "service " << s;
    }
    EXPECT_EQ(index.leastLoaded(kServices + 3, 4), faas::kNoInstance);
}

/** A 128-byte record, the size of an instance record: 32 KiB blocks. */
struct Record
{
    std::uint64_t key = 0;
    std::uint64_t payload[15] = {};

    bool operator==(const Record &o) const { return key == o.key; }
};
static_assert(sizeof(Record) == 128);

/** Size, indexing and iteration of @p table all agree with @p model. */
void
expectSameRecords(const BlockVector<Record> &table,
                  const std::vector<Record> &model)
{
    ASSERT_EQ(table.size(), model.size());
    EXPECT_EQ(table.empty(), model.empty());
    for (std::size_t i = 0; i < model.size(); ++i)
        ASSERT_EQ(table[i].key, model[i].key) << "index " << i;
    std::size_t i = 0;
    for (const Record &r : table) {
        ASSERT_LT(i, model.size());
        ASSERT_EQ(r.key, model[i].key) << "iterated " << i;
        ++i;
    }
    EXPECT_EQ(i, model.size());
}

TEST(BlockVectorProperty, MatchesStdVectorAcrossBlockBoundaries)
{
    sim::Rng rng(8128);
    // Empty, one record, both sides of the first block boundary, and
    // many blocks.
    for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 10'000u}) {
        BlockVector<Record> table;
        std::vector<Record> model;
        for (std::size_t i = 0; i < n; ++i) {
            Record r;
            r.key = rng();
            table.push_back(r);
            model.push_back(r);
        }
        expectSameRecords(table, model);

        // Writes through operator[] land in place.
        for (std::size_t i = 0; i < n; i += 97) {
            table[i].key = i;
            model[i].key = i;
        }
        expectSameRecords(table, model);
        if (n > 0) { // the iterator works with the standard algorithms
            EXPECT_TRUE(std::find(table.begin(), table.end(),
                                  model.back()) != table.end());
        }
    }
}

TEST(BlockVector, ReferencesSurviveGrowth)
{
    BlockVector<Record> table;
    for (std::uint64_t i = 0; i < 300; ++i) {
        Record r;
        r.key = i;
        table.push_back(r);
    }
    // The first record, and the last one in a half-filled block.
    Record &first = table[0];
    const Record *last = &table[299];
    for (std::uint64_t i = 300; i < 10'300; ++i) {
        Record r;
        r.key = i;
        table.push_back(r);
    }
    EXPECT_EQ(&first, &table[0]);
    EXPECT_EQ(last, &table[299]);
    EXPECT_EQ(first.key, 0u);
    EXPECT_EQ(last->key, 299u);
    first.key = 77;
    EXPECT_EQ(table[0].key, 77u);
}

TEST(BlockVector, MoveAssignmentReplacesLikeARestore)
{
    // Restore fills a staging table, then moves it over the live one.
    BlockVector<Record> live, staging;
    std::vector<Record> model;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        Record r;
        r.key = 5000 + i;
        live.push_back(r);
    }
    for (std::uint64_t i = 0; i < 300; ++i) {
        Record r;
        r.key = i;
        staging.push_back(r);
        model.push_back(r);
    }
    const Record *kept = &staging[257];
    live = std::move(staging);
    expectSameRecords(live, model);
    EXPECT_EQ(&live[257], kept); // the blocks moved, not the records

    // The moved-from table is empty and usable again.
    EXPECT_EQ(staging.size(), 0u);
    EXPECT_TRUE(staging.begin() == staging.end());
    Record r;
    r.key = 42;
    staging.push_back(r);
    ASSERT_EQ(staging.size(), 1u);
    EXPECT_EQ(staging[0].key, 42u);
    expectSameRecords(live, model);

    // Growing past the moved blocks keeps the table consistent.
    for (std::uint64_t i = 300; i < 600; ++i) {
        Record more;
        more.key = i;
        live.push_back(more);
        model.push_back(more);
    }
    expectSameRecords(live, model);

    BlockVector<Record> built(std::move(live));
    expectSameRecords(built, model);
    EXPECT_EQ(live.size(), 0u);
}

} // namespace
} // namespace eaao::support
