/**
 * @file
 * Unit tests for the per-GPU model and its analytic timing formula.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_model.hh"
#include "interconnect/topology.hh"

namespace gps
{
namespace
{

class GpuModelTest : public ::testing::Test
{
  protected:
    GpuModelTest()
        : gpu(0, GpuConfig{}, PageGeometry(64 * KiB)),
          topo("ic", 4, InterconnectKind::Pcie3),
          infinite("inf", 4, InterconnectKind::Infinite)
    {}

    /** The formula's kernel time on @p link, without the launch. */
    Tick
    kernelTime(const KernelCounters& c, const Topology& link) const
    {
        TimingConstants constants =
            timingConstants(gpu.config(), link.spec());
        constants.kernelLaunchOverhead = 0;
        return gpu.kernelTiming(c).time(constants).kernel;
    }

    GpuModel gpu;
    Topology topo;
    Topology infinite;
};

TEST_F(GpuModelTest, L2PathCountsMissAndFillBytes)
{
    KernelCounters c;
    gpu.l2Path(0x1000, false, c);
    EXPECT_EQ(c.l2Misses, 1u);
    EXPECT_EQ(c.dramBytes, 128u);
    gpu.l2Path(0x1000, false, c);
    EXPECT_EQ(c.l2Hits, 1u);
    EXPECT_EQ(c.dramBytes, 128u);
}

TEST_F(GpuModelTest, TlbAccessFillsOnMiss)
{
    KernelCounters c;
    EXPECT_TRUE(gpu.tlbAccess(42, c));
    EXPECT_FALSE(gpu.tlbAccess(42, c));
    EXPECT_EQ(c.tlbMisses, 1u);
}

TEST_F(GpuModelTest, ComputeBoundKernelScalesWithInstructions)
{
    KernelCounters c;
    c.computeInstrs = 1'000'000'000;
    const Tick t1 = kernelTime(c, topo);
    c.computeInstrs = 2'000'000'000;
    const Tick t2 = kernelTime(c, topo);
    EXPECT_NEAR(static_cast<double>(t2) / static_cast<double>(t1), 2.0,
                0.01);
}

TEST_F(GpuModelTest, DramBoundKernelMatchesBandwidth)
{
    KernelCounters c;
    c.dramBytes = 900'000'000; // 1 second at 900 GB/s... scaled: 1 ms
    const Tick t = kernelTime(c, topo);
    EXPECT_NEAR(ticksToMs(t), 1.0, 0.01);
}

TEST_F(GpuModelTest, OverlappableTermsComposeAsMax)
{
    KernelCounters compute_only;
    compute_only.computeInstrs = 1'000'000'000;
    KernelCounters dram_only;
    dram_only.dramBytes = 90'000'000;
    KernelCounters both;
    both.computeInstrs = compute_only.computeInstrs;
    both.dramBytes = dram_only.dramBytes;
    const Tick t_both = kernelTime(both, topo);
    const Tick t_max = std::max(kernelTime(compute_only, topo),
                                kernelTime(dram_only, topo));
    EXPECT_EQ(t_both, t_max);
}

TEST_F(GpuModelTest, RemoteLoadsExtendTheKernel)
{
    KernelCounters c;
    c.dramBytes = 9'000'000;
    const Tick base = kernelTime(c, topo);
    c.remoteLoads = 10'000;
    EXPECT_GT(kernelTime(c, topo), base);
}

TEST_F(GpuModelTest, RemoteAtomicsStallHarderThanLoads)
{
    KernelCounters loads;
    loads.remoteLoads = 10'000;
    KernelCounters atomics;
    atomics.remoteAtomics = 10'000;
    EXPECT_GT(kernelTime(atomics, topo),
              kernelTime(loads, topo));
}

TEST_F(GpuModelTest, InfiniteBandwidthElidesRemoteStalls)
{
    KernelCounters c;
    c.remoteLoads = 10'000;
    c.remoteAtomics = 10'000;
    EXPECT_EQ(kernelTime(c, infinite), 0u);
}

TEST_F(GpuModelTest, PageFaultsSerializeInBatches)
{
    KernelCounters c;
    c.pageFaults = 1;
    const Tick one = kernelTime(c, topo);
    EXPECT_EQ(one, gpu.faultTiming().faultLatency);
    c.pageFaults = gpu.faultTiming().faultConcurrency;
    EXPECT_EQ(kernelTime(c, topo), one);
    c.pageFaults = gpu.faultTiming().faultConcurrency + 1;
    EXPECT_EQ(kernelTime(c, topo), 2 * one);
}

TEST_F(GpuModelTest, ShootdownsAddFixedCost)
{
    KernelCounters c;
    c.tlbShootdowns = 3;
    EXPECT_EQ(kernelTime(c, topo),
              3 * gpu.faultTiming().shootdownLatency);
}

TEST_F(GpuModelTest, TlbMissesAddWalkTime)
{
    KernelCounters c;
    c.tlbMisses = 100'000;
    EXPECT_GT(kernelTime(c, topo), 0u);
}

TEST(GpuConfig, Table1Defaults)
{
    const GpuConfig config;
    EXPECT_EQ(config.numSms, 80u);
    EXPECT_EQ(config.cudaCoresPerSm, 64u);
    EXPECT_EQ(config.cacheLineBytes, 128u);
    EXPECT_EQ(config.l2CacheBytes, 6 * MiB);
    EXPECT_EQ(config.globalMemoryBytes, 16 * GiB);
    EXPECT_EQ(config.warpSize, 32u);
    EXPECT_EQ(config.maxThreadsPerSm, 2048u);
    EXPECT_EQ(config.maxThreadsPerCta, 1024u);
    EXPECT_EQ(config.virtualAddressBits, 49u);
    EXPECT_EQ(config.physicalAddressBits, 47u);
}

} // namespace
} // namespace gps
