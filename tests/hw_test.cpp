/**
 * @file
 * Unit tests for the hardware layer: SKUs, TSC domains, host noise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "hw/cpu_sku.hpp"
#include "hw/host.hpp"
#include "hw/tsc.hpp"

namespace eaao::hw {
namespace {

TEST(SkuCatalog, ParsesLabeledFrequency)
{
    EXPECT_DOUBLE_EQ(
        SkuCatalog::labeledFrequencyHz("Intel Xeon CPU @ 2.00GHz"),
        2.00e9);
    EXPECT_DOUBLE_EQ(
        SkuCatalog::labeledFrequencyHz("Intel Xeon CPU @ 2.25GHz"),
        2.25e9);
    // Every SKU parses to the bits strtod gives its digits (what the
    // "%lf" parse computed), so fingerprints keep their exact T_boot.
    const SkuCatalog catalog;
    for (SkuId id = 0; id < catalog.size(); ++id) {
        const std::string &model = catalog.get(id).model_name;
        const std::size_t digits = model.rfind("@ ") + 2;
        EXPECT_EQ(SkuCatalog::labeledFrequencyHz(model),
                  std::strtod(model.c_str() + digits, nullptr) * 1e9)
            << model;
    }
    for (const char *unlabeled : {"Virtual CPU", "", "@", "@ GHz",
                                  "x @ 2.00", "x @ 2.00MHz",
                                  "x @ 2.00 GHz"})
        EXPECT_EQ(SkuCatalog::labeledFrequencyHz(unlabeled), 0.0)
            << unlabeled;
}

TEST(SkuCatalog, CatalogEntriesAreSelfConsistent)
{
    SkuCatalog catalog;
    ASSERT_GT(catalog.size(), 0u);
    for (SkuId id = 0; id < catalog.size(); ++id) {
        const CpuSku &sku = catalog.get(id);
        EXPECT_GT(sku.nominal_hz, 0.0);
        EXPECT_GT(sku.vcpus, 0u);
        // The label the attacker parses must equal the nominal rate.
        EXPECT_DOUBLE_EQ(SkuCatalog::labeledFrequencyHz(sku.model_name),
                         sku.nominal_hz);
    }
}

class TscDomainTest : public ::testing::Test
{
  protected:
    sim::Rng rng_{99};
    TscConfig cfg_;
};

TEST_F(TscDomainTest, CounterStartsAtBootAndTicksAtTrueRate)
{
    const sim::SimTime boot = sim::SimTime() - sim::Duration::days(10);
    TscDomain tsc(boot, 2.0e9, 1500.0, cfg_, rng_);
    EXPECT_EQ(tsc.idealRead(boot), 0u);
    const sim::SimTime later = boot + sim::Duration::seconds(100);
    const double expected = 100.0 * (2.0e9 + 1500.0);
    EXPECT_NEAR(static_cast<double>(tsc.idealRead(later)), expected, 1.0);
}

TEST_F(TscDomainTest, ReadJitterIsSmall)
{
    const sim::SimTime boot = sim::SimTime() - sim::Duration::days(1);
    TscDomain tsc(boot, 2.0e9, 0.0, cfg_, rng_);
    const sim::SimTime t = sim::SimTime();
    const auto ideal = static_cast<double>(tsc.idealRead(t));
    for (int i = 0; i < 100; ++i) {
        const auto v = static_cast<double>(tsc.read(t, rng_));
        EXPECT_NEAR(v, ideal, 2000.0); // within ~1 us at 2 GHz
    }
}

TEST_F(TscDomainTest, RefinedFrequencySnapsToGranularity)
{
    for (int i = 0; i < 50; ++i) {
        TscDomain tsc(sim::SimTime(), 2.2e9, 700.0, cfg_, rng_);
        const double refined = tsc.refinedHz();
        EXPECT_DOUBLE_EQ(std::fmod(refined, 1000.0), 0.0);
        // Calibration noise is kHz-scale; refined stays near true.
        EXPECT_NEAR(refined, 2.2e9, 50e3);
    }
}

TEST_F(TscDomainTest, RefinedFrequencyVariesAcrossBoots)
{
    // Per-boot calibration noise dominates: two boots of the same
    // crystal usually refine to different values.
    int distinct = 0;
    TscDomain first(sim::SimTime(), 2.0e9, 300.0, cfg_, rng_);
    for (int i = 0; i < 20; ++i) {
        TscDomain other(sim::SimTime(), 2.0e9, 300.0, cfg_, rng_);
        distinct += (other.refinedHz() != first.refinedHz());
    }
    EXPECT_GT(distinct, 10);
}

class HostMachineTest : public ::testing::Test
{
  protected:
    HostMachine
    makeHost(std::uint64_t seed, double noisy_fraction = 0.0)
    {
        sim::Rng rng(seed);
        TimingNoiseConfig timing;
        timing.noisy_timer_fraction = noisy_fraction;
        SkuCatalog catalog;
        return HostMachine(0, 0, catalog.get(0),
                           sim::SimTime() - sim::Duration::days(5),
                           1000.0, TscConfig{}, timing, rng);
    }
};

TEST_F(HostMachineTest, ExposesSkuMetadata)
{
    HostMachine host = makeHost(1);
    const SkuCatalog catalog;
    const CpuSku &sku = catalog.get(host.skuId());
    EXPECT_EQ(sku.model_name, "Intel Xeon CPU @ 2.00GHz");
    EXPECT_GT(sku.vcpus, 0u);
    EXPECT_FALSE(host.noisyTimer());
    EXPECT_DOUBLE_EQ(host.freqMeasSigmaHz(), 30.0);
}

TEST_F(HostMachineTest, NoisyTimerHostsGetLargeSigma)
{
    HostMachine host = makeHost(2, 1.0);
    EXPECT_TRUE(host.noisyTimer());
    EXPECT_GE(host.freqMeasSigmaHz(), 10e3);
}

TEST_F(HostMachineTest, WallClockDelayIsNonNegativeAndMostlySmall)
{
    const TimingNoiseConfig timing;
    sim::Rng rng(7);
    const sim::SimTime now;
    int clean = 0;
    for (int i = 0; i < 2000; ++i) {
        const sim::SimTime sample = sampleWallClock(timing, now, rng);
        const double delay = (sample - now).secondsF();
        ASSERT_GT(delay, 0.0);
        ASSERT_LT(delay, 1.0);
        clean += (delay < 100e-6);
    }
    // ~80% of samples follow the clean microsecond-scale path.
    EXPECT_GT(clean, 1400);
    EXPECT_LT(clean, 1900);
}

TEST_F(HostMachineTest, RebootResetsCounterKeepsCrystal)
{
    HostMachine host = makeHost(4);
    const double true_before = host.tsc().trueHz();
    sim::Rng rng(11);
    const sim::SimTime when = sim::SimTime() + sim::Duration::hours(1);
    host.reboot(when, TscConfig{}, rng);
    EXPECT_EQ(host.tsc().bootTime(), when);
    EXPECT_EQ(host.tsc().idealRead(when), 0u);
    // Label error is a crystal property: unchanged across reboots.
    EXPECT_DOUBLE_EQ(host.tsc().trueHz(), true_before);
}

} // namespace
} // namespace eaao::hw
