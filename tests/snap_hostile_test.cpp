/**
 * @file
 * Restore refuses checksum-valid images whose records point outside
 * what they index. Each test corrupts one field kind of a captured
 * image, re-checksums the image with SnapshotWriter (so only restore's
 * own checks stand between the field and an out-of-bounds access) and
 * expects one "corrupt snapshot: ..." line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "faas/sharded.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"

namespace eaao::snap {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Kind = faas::ShardOp::Kind;

faas::ShardedConfig
config()
{
    faas::ShardedConfig cfg;
    cfg.profile.host_count = 550; // 5 lanes
    cfg.seed = 99;
    return cfg;
}

/**
 * Capture a platform paused before its second fold. Lane 0's script
 * leaves an active and an idle list, a created list (a Restart op
 * reads it) and an unfolded capacity delta; the first fold filled the
 * committed table.
 */
struct Captured
{
    faas::ShardedPlatform platform{config()};
    Bytes image;

    Captured()
    {
        std::vector<faas::ShardOp> ops;
        for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
            const auto acct = platform.createAccount(lane);
            const auto svc =
                platform.deployService(acct, faas::ExecEnv::Gen1);
            std::uint32_t step = 0;
            const auto push = [&](Kind kind, std::int64_t at_s) {
                faas::ShardOp op;
                op.kind = kind;
                op.at = sim::SimTime() + sim::Duration::seconds(at_s);
                op.step = step++;
                op.service = svc;
                op.account = acct;
                ops.push_back(op);
                return &ops.back();
            };
            push(Kind::Connect, 0)->a = 20;
            push(Kind::Restart, 5)->a = 3;
            push(Kind::Route, 10)->dur = sim::Duration::hours(2);
            push(Kind::Disconnect, 15);
            push(Kind::Restart, 45)->a = 7;
        }
        std::stable_sort(ops.begin(), ops.end(),
                         [](const auto &a, const auto &b) {
                             return a.at < b.at;
                         });
        platform.beginRun(std::move(ops),
                          sim::SimTime() + sim::Duration::minutes(5));
        platform.advanceWindow();
        platform.completeWindow();
        platform.advanceWindow();
        image = Snapshotter::capture(platform);
    }

    const faas::Orchestrator &lane0() const
    {
        return platform.laneOrchestrator(0);
    }
};

/** The image's sections, editable, in file order. */
struct Sections
{
    std::vector<std::uint32_t> ids;
    std::vector<Bytes> payloads;

    explicit Sections(const Bytes &image)
    {
        SnapshotReader reader;
        std::string error;
        EXPECT_TRUE(reader.parse(image, error)) << error;
        ids = reader.sectionIds();
        for (const std::uint32_t id : ids) {
            const SectionView *v = reader.section(id);
            payloads.emplace_back(v->data, v->data + v->size);
        }
    }

    Bytes &
    at(std::uint32_t id)
    {
        const auto it = std::find(ids.begin(), ids.end(), id);
        EXPECT_NE(it, ids.end());
        return payloads[static_cast<std::size_t>(it - ids.begin())];
    }

    /** Re-emit with fresh checksums. */
    Bytes
    image() const
    {
        SnapshotWriter writer;
        for (std::size_t i = 0; i < ids.size(); ++i)
            writer.addSection(ids[i], payloads[i]);
        return writer.finish();
    }
};

void
putLE(Bytes &out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
storeLE(Bytes &b, std::size_t off, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
loadLE(const Bytes &b, std::size_t off, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
    return v;
}

/** Wire form of an id vector: u64 count, then @p width-byte ids. */
template <typename T>
Bytes
encoded(const std::vector<T> &ids, unsigned width)
{
    Bytes out;
    putLE(out, ids.size(), 8);
    for (const T id : ids)
        putLE(out, id, width);
    return out;
}

/** Offset of the one occurrence of @p needle in @p hay. */
std::size_t
findOnce(const Bytes &hay, const Bytes &needle)
{
    const auto first =
        std::search(hay.begin(), hay.end(), needle.begin(), needle.end());
    EXPECT_NE(first, hay.end()) << "field not found";
    EXPECT_EQ(std::search(first + 1, hay.end(), needle.begin(), needle.end()),
              hay.end())
        << "field not unique";
    return static_cast<std::size_t>(first - hay.begin());
}

/** Restore @p image into a fresh platform; the refusal line. */
std::string
refusal(const Bytes &image)
{
    faas::ShardedPlatform target(config());
    std::string error;
    EXPECT_FALSE(Snapshotter::restore(image, target, error));
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    return error;
}

constexpr std::uint32_t kLane0 = kSectionLaneBase;

TEST(SnapHostile, CleanImageRestores)
{
    Captured run;
    faas::ShardedPlatform target(config());
    std::string error;
    EXPECT_TRUE(Snapshotter::restore(Sections(run.image).image(), target,
                                     error))
        << error;
}

TEST(SnapHostile, RefusesLoadEntryPastTheFleet)
{
    Captured run;
    Sections s(run.image);
    Bytes &committed = s.at(kSectionCommitted);
    ASSERT_GE(loadLE(committed, 0, 8), 2u); // u64 count, then entries
    storeLE(committed, 8, run.platform.fleet().size() + 5, 4);
    EXPECT_EQ(refusal(s.image()),
              "corrupt snapshot: host-load entry for host 555 past the "
              "fleet");
}

TEST(SnapHostile, RefusesDuplicatedLoadEntry)
{
    Captured run;
    Sections s(run.image);
    Bytes &committed = s.at(kSectionCommitted);
    ASSERT_GE(loadLE(committed, 0, 8), 2u);
    const std::uint64_t first_host = loadLE(committed, 8, 4);
    storeLE(committed, 8 + 20, first_host, 4); // entry 1 = entry 0's host
    EXPECT_EQ(refusal(s.image()),
              "corrupt snapshot: duplicate host-load entry for host " +
                  std::to_string(first_host));
}

TEST(SnapHostile, RefusesBaseOrderHostOutsideTheShard)
{
    Captured run;
    Sections s(run.image);
    Bytes &lane = s.at(kLane0);
    const std::size_t at =
        findOnce(lane, encoded(run.lane0().account(0).base_order, 4));
    storeLE(lane, at + 8, run.platform.fleet().size() + 1, 4);
    EXPECT_EQ(refusal(s.image()),
              "corrupt snapshot: account 0 base order is not a "
              "permutation of its home shard");
}

TEST(SnapHostile, RefusesAccountIdOutOfPlace)
{
    Captured run;
    Sections s(run.image);
    Bytes &lane = s.at(kLane0);
    // u32 id, u32 shard, then the base order.
    const std::size_t at =
        findOnce(lane, encoded(run.lane0().account(0).base_order, 4));
    storeLE(lane, at - 8, 7, 4);
    EXPECT_EQ(refusal(s.image()),
              "corrupt snapshot: account record 0 carries id 7");
}

TEST(SnapHostile, RefusesServiceAccountOutOfRange)
{
    Captured run;
    Sections s(run.image);
    Bytes &lane = s.at(kLane0);
    // u32 id, u32 account, u8 env, u8 size, u32 concurrency, then the
    // helper prefix.
    const std::size_t at =
        findOnce(lane, encoded(run.lane0().service(0).helper_order, 4));
    storeLE(lane, at - 10, 99, 4);
    EXPECT_EQ(refusal(s.image()), "corrupt snapshot: bad service record");
}

TEST(SnapHostile, RefusesHelperPrefixHostOutsideTheCandidates)
{
    Captured run;
    Sections s(run.image);
    Bytes &lane = s.at(kLane0);
    const std::vector<hw::HostId> &helpers =
        run.lane0().service(0).helper_order;
    const std::size_t at = findOnce(lane, encoded(helpers, 4));
    // Past the fleet, then a home-shard host, then a repeat.
    for (const std::uint64_t host :
         {std::uint64_t{run.platform.fleet().size()},
          std::uint64_t{run.lane0().account(0).base_order.front()},
          std::uint64_t{helpers.front()}}) {
        storeLE(lane, at + 8 + 4, host, 4);
        EXPECT_EQ(refusal(s.image()),
                  "corrupt snapshot: service 0 helper or spill prefix "
                  "lists a host that is not a distinct candidate");
    }
}

TEST(SnapHostile, RefusesShortHelperPrefix)
{
    Captured run;
    Sections s(run.image);
    Bytes &lane = s.at(kLane0);
    std::vector<hw::HostId> helpers = run.lane0().service(0).helper_order;
    const Bytes full = encoded(helpers, 4);
    const std::size_t at = findOnce(lane, full);
    helpers.pop_back();
    const Bytes shorter = encoded(helpers, 4);
    lane.erase(lane.begin() + static_cast<std::ptrdiff_t>(at),
               lane.begin() + static_cast<std::ptrdiff_t>(at + full.size()));
    lane.insert(lane.begin() + static_cast<std::ptrdiff_t>(at),
                shorter.begin(), shorter.end());
    EXPECT_EQ(refusal(s.image()),
              "corrupt snapshot: service 0 helper prefix is shorter than "
              "a pick reads");
}

TEST(SnapHostile, RefusesServiceListsNamingForeignInstances)
{
    Captured run;
    const faas::ServiceRecord &svc = run.lane0().service(0);
    ASSERT_FALSE(svc.active.empty());
    ASSERT_FALSE(svc.idle.empty());
    // The two lists are adjacent on the wire: active, then idle.
    Bytes both = encoded(svc.active, 8);
    const Bytes idle = encoded(svc.idle, 8);
    both.insert(both.end(), idle.begin(), idle.end());
    const std::size_t first_idle = 8 + 8 * svc.active.size() + 8;
    for (const std::size_t slot : {std::size_t{8}, first_idle}) {
        // An id past the table, then one of an instance in the other
        // state.
        for (const std::uint64_t id :
             {std::uint64_t{1'000'000},
              slot == 8 ? svc.idle.front() : svc.active.front()}) {
            Sections s(run.image);
            Bytes &lane = s.at(kLane0);
            storeLE(lane, findOnce(lane, both) + slot, id, 8);
            EXPECT_EQ(refusal(s.image()),
                      "corrupt snapshot: service 0 lists an instance that "
                      "is not its own or not in that state");
        }
    }
}

TEST(SnapHostile, RefusesCreatedListPastTheInstanceTable)
{
    Captured run;
    Sections s(run.image);
    Bytes &lane = s.at(kLane0);
    // The second Restart op read the 21 instances created before it.
    std::vector<std::uint64_t> created(21);
    for (std::uint64_t i = 0; i < created.size(); ++i)
        created[i] = i;
    const std::size_t at = findOnce(lane, encoded(created, 8));
    storeLE(lane, at + 8 + 8 * 4, run.lane0().instanceCount() + 3, 8);
    EXPECT_EQ(refusal(s.image()),
              "corrupt snapshot: lane account, service or created list "
              "out of range");
}

TEST(SnapHostile, RefusesMapEntryPastItsLane)
{
    Captured run;
    // Meta: u64 fingerprint, u32 lanes, u32 fleet, u8 obs, u32 windows,
    // i64 now/horizon/next barrier, u8 running, u8 pending fold, then
    // the account map (u64 count, (u32 lane, u32 local) pairs) and the
    // service map in the same shape.
    constexpr std::size_t kAcctMap = 8 + 4 + 4 + 1 + 4 + 3 * 8 + 1 + 1;
    const std::uint32_t lanes = run.platform.laneCount();
    {
        Sections s(run.image);
        Bytes &meta = s.at(kSectionMeta);
        ASSERT_EQ(loadLE(meta, kAcctMap, 8), lanes);
        storeLE(meta, kAcctMap + 8, lanes + 2, 4); // account 0's lane
        EXPECT_EQ(refusal(s.image()),
                  "corrupt snapshot: account map points past its lane");
    }
    {
        Sections s(run.image);
        Bytes &meta = s.at(kSectionMeta);
        const std::size_t svc_map = kAcctMap + 8 + 8 * lanes;
        ASSERT_EQ(loadLE(meta, svc_map, 8), lanes);
        storeLE(meta, svc_map + 8 + 4, 40, 4); // service 0's local id
        EXPECT_EQ(refusal(s.image()),
                  "corrupt snapshot: service map points past its lane");
    }
}

} // namespace
} // namespace eaao::snap
