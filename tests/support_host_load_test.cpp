/**
 * @file
 * Property tests for the sparse host-load table (support/host_load.hpp)
 * against a dense array-of-structs reference, under long random
 * operation sequences including the sharded platform's delta-drain
 * barriers. (The suite names predate the table's sparse layout.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "support/host_load.hpp"

namespace eaao::support {
namespace {

/** The AoS model: one struct per host plus an explicit touch list. */
struct RefTable
{
    struct Entry
    {
        double vcpus = 0.0;
        double mem_gb = 0.0;
        bool dirty = false;
    };
    std::vector<Entry> hosts;
    std::vector<std::uint32_t> touched; //!< first-touch order

    explicit RefTable(std::size_t n) : hosts(n) {}

    void
    touch(std::uint32_t h)
    {
        if (!hosts[h].dirty) {
            hosts[h].dirty = true;
            touched.push_back(h);
        }
    }

    void
    add(std::uint32_t h, double v, double m)
    {
        hosts[h].vcpus += v;
        hosts[h].mem_gb += m;
        touch(h);
    }

    void
    sub(std::uint32_t h, double v, double m)
    {
        hosts[h].vcpus -= v;
        hosts[h].mem_gb -= m;
        touch(h);
    }

    /** Mirror of HostLoadTable::drain, folding in first-touch order. */
    HostLoadFold
    drain(RefTable *into)
    {
        HostLoadFold fold;
        for (const std::uint32_t h : touched) {
            fold.vcpus += hosts[h].vcpus;
            fold.mem_gb += hosts[h].mem_gb;
            if (into != nullptr) {
                into->hosts[h].vcpus += hosts[h].vcpus;
                into->hosts[h].mem_gb += hosts[h].mem_gb;
            }
            hosts[h].vcpus = 0.0;
            hosts[h].mem_gb = 0.0;
            hosts[h].dirty = false;
        }
        fold.hosts = touched.size();
        touched.clear();
        return fold;
    }
};

TEST(HostLoadSoAProperty, MatchesAosReferenceOverRandomOps)
{
    constexpr std::size_t kHosts = 257;
    constexpr std::uint32_t kLanes = 3;

    sim::Rng rng(0x50a50a);

    HostLoadTable committed;
    RefTable ref_committed(kHosts);

    std::vector<HostLoadTable> lanes(kLanes);
    std::vector<RefTable> ref_lanes;
    for (std::uint32_t i = 0; i < kLanes; ++i)
        ref_lanes.emplace_back(kHosts);

    // Sizes quantized like real container sizes so cancellations to
    // exactly 0.0 happen (the bit-exactness trap worth testing).
    const auto quantum = [&rng] {
        return 0.25 * static_cast<double>(rng.uniformInt(1, 8));
    };

    for (int op = 0; op < 10'000; ++op) {
        const auto lane = static_cast<std::uint32_t>(rng.uniformInt(kLanes));
        const auto host = static_cast<std::uint32_t>(rng.uniformInt(kHosts));
        switch (rng.uniformInt(8)) {
        case 0:
        case 1:
        case 2: { // add
            const double v = quantum();
            const double m = quantum();
            lanes[lane].add(host, v, m);
            ref_lanes[lane].add(host, v, m);
            break;
        }
        case 3:
        case 4: { // sub
            const double v = quantum();
            const double m = quantum();
            lanes[lane].sub(host, v, m);
            ref_lanes[lane].sub(host, v, m);
            break;
        }
        case 5: { // point read: committed + lane delta, both columns
            const double soa_v =
                committed.vcpus(host) + lanes[lane].vcpus(host);
            const double ref_v = ref_committed.hosts[host].vcpus +
                                 ref_lanes[lane].hosts[host].vcpus;
            ASSERT_EQ(soa_v, ref_v) << "op " << op << " host " << host;
            const double soa_m =
                committed.memGb(host) + lanes[lane].memGb(host);
            const double ref_m = ref_committed.hosts[host].mem_gb +
                                 ref_lanes[lane].hosts[host].mem_gb;
            ASSERT_EQ(soa_m, ref_m) << "op " << op << " host " << host;
            break;
        }
        case 6: { // barrier: drain every lane in canonical lane order
            for (std::uint32_t i = 0; i < kLanes; ++i) {
                // One entry per distinct touched host, in touch order,
                // zero entries included.
                ASSERT_EQ(lanes[i].hosts(), ref_lanes[i].touched)
                    << "op " << op;
                const HostLoadFold f = lanes[i].drain(&committed);
                const HostLoadFold rf = ref_lanes[i].drain(&ref_committed);
                ASSERT_EQ(f.hosts, rf.hosts) << "op " << op;
                ASSERT_EQ(f.vcpus, rf.vcpus) << "op " << op;
                ASSERT_EQ(f.mem_gb, rf.mem_gb) << "op " << op;
                ASSERT_EQ(lanes[i].size(), 0u);
            }
            break;
        }
        default: { // dropped exchange (the fault-4 path): discard
            const HostLoadFold f = lanes[lane].drain(nullptr);
            const HostLoadFold rf = ref_lanes[lane].drain(nullptr);
            ASSERT_EQ(f.hosts, rf.hosts) << "op " << op;
            ASSERT_EQ(f.vcpus, rf.vcpus) << "op " << op;
            ASSERT_EQ(f.mem_gb, rf.mem_gb) << "op " << op;
            break;
        }
        }
    }

    // Final settle: every host's committed + residual deltas agree
    // bit-for-bit between the layouts.
    for (std::uint32_t i = 0; i < kLanes; ++i)
        ASSERT_EQ(lanes[i].hosts(), ref_lanes[i].touched);
    for (std::uint32_t h = 0; h < kHosts; ++h) {
        double soa_v = committed.vcpus(h);
        double ref_v = ref_committed.hosts[h].vcpus;
        double soa_m = committed.memGb(h);
        double ref_m = ref_committed.hosts[h].mem_gb;
        for (std::uint32_t i = 0; i < kLanes; ++i) {
            soa_v += lanes[i].vcpus(h);
            ref_v += ref_lanes[i].hosts[h].vcpus;
            soa_m += lanes[i].memGb(h);
            ref_m += ref_lanes[i].hosts[h].mem_gb;
        }
        ASSERT_EQ(soa_v, ref_v) << "host " << h;
        ASSERT_EQ(soa_m, ref_m) << "host " << h;
    }
}

TEST(HostLoadSoA, TouchOrderIsFirstTouch)
{
    HostLoadTable t;
    t.add(5, 1.0, 1.0);
    t.add(2, 1.0, 1.0);
    t.add(5, 1.0, 1.0); // re-touch must not re-append
    t.sub(7, 1.0, 1.0);
    const std::vector<std::uint32_t> want = {5, 2, 7};
    EXPECT_EQ(t.hosts(), want);

    HostLoadTable into;
    const HostLoadFold f = t.drain(&into);
    EXPECT_EQ(f.hosts, 3u);
    EXPECT_EQ(f.vcpus, 2.0); // 2 + 1 - 1, in touch order
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(into.vcpus(5), 2.0);
    EXPECT_EQ(into.vcpus(2), 1.0);
    EXPECT_EQ(into.vcpus(7), -1.0);
    EXPECT_EQ(t.vcpus(5), 0.0);
}

TEST(HostLoadSoA, ZeroEntriesStayAndFold)
{
    // A host whose load returns to zero keeps its entry: the window
    // digest's hosts= counts it, as the dense ledger's dirty bit did.
    HostLoadTable t;
    t.add(3, 0.5, 1.0);
    t.sub(3, 0.5, 1.0);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.vcpus(3), 0.0);
    EXPECT_EQ(t.vcpus(4), 0.0); // never touched
    EXPECT_EQ(t.drain(nullptr).hosts, 1u);

    // Restore refuses a second entry for one host.
    EXPECT_TRUE(t.restoreEntry(9, 1.0, 2.0));
    EXPECT_FALSE(t.restoreEntry(9, 1.0, 2.0));
    EXPECT_EQ(t.memGb(9), 2.0);
}

} // namespace
} // namespace eaao::support
