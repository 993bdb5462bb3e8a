/** @file Tests for the multi-fragment-generator simulation (section 8). */

#include <gtest/gtest.h>

#include "core/parallel.hh"
#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"

using namespace texcache;

namespace {

constexpr CacheConfig kCache{4 * 1024, 64, 2};

} // namespace

TEST(Parallel, ScanlinePolicyAlternatesByRow)
{
    MultiGeneratorSim sim(4, WorkDistribution::ScanlineInterleaved,
                          kCache);
    EXPECT_EQ(sim.generatorFor(100, 0), 0u);
    EXPECT_EQ(sim.generatorFor(5, 1), 1u);
    EXPECT_EQ(sim.generatorFor(5, 5), 1u);
    EXPECT_EQ(sim.generatorFor(0, 7), 3u);
}

TEST(Parallel, BandsPolicySplitsContiguously)
{
    MultiGeneratorSim sim(4, WorkDistribution::Bands, kCache, 32,
                          /*screen_h=*/1024);
    EXPECT_EQ(sim.generatorFor(0, 0), 0u);
    EXPECT_EQ(sim.generatorFor(0, 255), 0u);
    EXPECT_EQ(sim.generatorFor(0, 256), 1u);
    EXPECT_EQ(sim.generatorFor(0, 1023), 3u);
}

TEST(Parallel, TilePolicyKeepsTilesTogether)
{
    MultiGeneratorSim sim(4, WorkDistribution::TileInterleaved, kCache,
                          /*tile=*/32);
    unsigned g = sim.generatorFor(0, 0);
    EXPECT_EQ(sim.generatorFor(31, 31), g);
    // Some other tile lands elsewhere (the policy spreads work).
    bool differs = false;
    for (int t = 1; t < 8 && !differs; ++t)
        differs = sim.generatorFor(t * 32, 0) != g;
    EXPECT_TRUE(differs);
}

TEST(Parallel, SingleGeneratorMatchesPlainCache)
{
    Scene scene = makeQuadTestScene(128, 96);
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    SceneLayout layout(scene, p);

    MultiGeneratorSim sim(1, WorkDistribution::ScanlineInterleaved,
                          kCache);
    CacheSim plain(kCache);

    RenderOptions opts;
    opts.captureTrace = true;
    opts.onFragment = [&](const Fragment &f, const SampleResult &s,
                          uint16_t tex) {
        Addr addrs[24];
        unsigned n = 0;
        for (unsigned i = 0; i < s.numTouches; ++i) {
            Addr out[3];
            unsigned k = layout.layout(tex).addresses(
                {s.touches[i].level, s.touches[i].u, s.touches[i].v},
                out);
            for (unsigned j = 0; j < k; ++j)
                addrs[n++] = out[j];
        }
        sim.addFragment(f.x, f.y, addrs, n);
    };
    RenderOutput out = render(scene, RasterOrder::horizontal(), opts);

    layout.forEachAddress(out.trace, [&](Addr a) { plain.access(a); });

    ParallelStats stats = sim.finish();
    ASSERT_EQ(stats.perGenerator.size(), 1u);
    EXPECT_EQ(stats.perGenerator[0].accesses, plain.stats().accesses);
    EXPECT_EQ(stats.perGenerator[0].misses, plain.stats().misses);
    EXPECT_EQ(stats.fragments, out.stats.fragments);
}

TEST(Parallel, MoreGeneratorsNeverReduceTotalTraffic)
{
    // Splitting one reference stream across private caches can only
    // lose reuse (textures are read-only; no communication).
    Scene scene = makeQuadTestScene(256, 128);
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    SceneLayout layout(scene, p);

    auto run = [&](unsigned n_gen) {
        MultiGeneratorSim sim(n_gen,
                              WorkDistribution::ScanlineInterleaved,
                              kCache, 32, 128);
        RenderOptions opts;
        opts.captureTrace = false;
        opts.writeFramebuffer = false;
        opts.onFragment = [&](const Fragment &f, const SampleResult &s,
                              uint16_t tex) {
            Addr addrs[24];
            unsigned n = 0;
            for (unsigned i = 0; i < s.numTouches; ++i) {
                Addr out[3];
                unsigned k = layout.layout(tex).addresses(
                    {s.touches[i].level, s.touches[i].u,
                     s.touches[i].v},
                    out);
                for (unsigned j = 0; j < k; ++j)
                    addrs[n++] = out[j];
            }
            sim.addFragment(f.x, f.y, addrs, n);
        };
        render(scene, RasterOrder::horizontal(), opts);
        return sim.finish();
    };

    ParallelStats one = run(1);
    ParallelStats four = run(4);
    EXPECT_EQ(one.totalAccesses(), four.totalAccesses());
    EXPECT_GE(four.totalMisses(), one.totalMisses());
}

TEST(Parallel, LoadImbalanceIsOneWhenEven)
{
    MultiGeneratorSim sim(2, WorkDistribution::ScanlineInterleaved,
                          kCache);
    Addr a = 0;
    for (int y = 0; y < 64; ++y)
        sim.addFragment(0, y, &a, 1);
    ParallelStats stats = sim.finish();
    EXPECT_DOUBLE_EQ(stats.loadImbalance(), 1.0);
}

TEST(Parallel, ZeroGeneratorsIsFatal)
{
    EXPECT_EXIT(MultiGeneratorSim(0,
                                  WorkDistribution::ScanlineInterleaved,
                                  kCache),
                ::testing::ExitedWithCode(1), "at least one");
}

TEST(Parallel, DistributionNames)
{
    EXPECT_STREQ(
        workDistributionName(WorkDistribution::ScanlineInterleaved),
        "scanline-interleaved");
    EXPECT_STREQ(workDistributionName(WorkDistribution::TileInterleaved),
                 "tile-interleaved");
    EXPECT_STREQ(workDistributionName(WorkDistribution::Bands), "bands");
}
