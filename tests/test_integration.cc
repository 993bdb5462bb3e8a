/** @file
 * End-to-end integration tests: full benchmark scene -> render ->
 * layout -> cache, anchoring the paper's headline results as
 * regression bands. Uses Goblet (the cheapest scene) so the suite
 * stays fast.
 */

#include <gtest/gtest.h>

#include "cache/bandwidth.hh"
#include "core/experiment.hh"
#include "core/scene_layout.hh"
#include "trace/trace_stats.hh"

using namespace texcache;

namespace {

/** Render Goblet once for the whole file. */
struct Fixture
{
    Scene scene = makeGobletScene();
    RenderOutput out = [this] {
        RenderOptions opts;
        opts.writeFramebuffer = false;
        return render(scene, RasterOrder::tiledOrder(8, 8), opts);
    }();
};

Fixture &
fix()
{
    static Fixture f;
    return f;
}

LayoutParams
paddedParams()
{
    LayoutParams p;
    p.kind = LayoutKind::PaddedBlocked;
    p.blockW = p.blockH = 8;
    return p;
}

} // namespace

TEST(Integration, GobletTrafficIsDeterministic)
{
    // Regression anchor: the exact trace length of the deterministic
    // Goblet render. If this moves, every figure changes.
    EXPECT_EQ(fix().out.trace.size(), fix().out.stats.texelAccesses);
    EXPECT_GT(fix().out.stats.fragments, 250000u);
    EXPECT_LT(fix().out.stats.fragments, 350000u);
}

TEST(Integration, PaperHeadlineWorkingSetBand)
{
    // "Working set sizes are relatively small (at most 16KB)": the
    // 32 KB / 32 B fully associative miss rate must sit on the cold
    // floor (within 2x of the 512 KB rate).
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout layout(fix().scene, p);
    ShardedStackProfile prof = profileTrace(fix().out.trace, layout, 32);
    EXPECT_LE(prof.missRate(32 * 1024),
              prof.missRate(512 * 1024) * 2.0);
}

TEST(Integration, PaperHeadlineBandwidthReduction)
{
    // "At least three times and as much as fifteen times" lower
    // bandwidth with a 32 KB cache than the 1.6 GB/s uncached system.
    SceneLayout layout(fix().scene, paddedParams());
    CacheStats stats =
        runCache(fix().out.trace, layout, {32 * 1024, 128, 2});
    MachineModel machine;
    double reduction =
        machine.reductionFactor(stats.missRate(), 128);
    EXPECT_GE(reduction, 3.0);
    EXPECT_LE(reduction, 40.0); // sanity ceiling
}

TEST(Integration, TwoWayRemovesMipLevelConflicts)
{
    // Fig 5.7(a)'s claim on the real scene: 2-way ~= fully
    // associative, direct-mapped notably worse (8 KB cache).
    SceneLayout layout(fix().scene, paddedParams());
    CacheStats dm =
        runCache(fix().out.trace, layout, {8 * 1024, 128, 1});
    CacheStats w2 =
        runCache(fix().out.trace, layout, {8 * 1024, 128, 2});
    CacheStats fa = runCache(fix().out.trace, layout,
                             {8 * 1024, 128, CacheConfig::kFullyAssoc});
    EXPECT_GT(dm.missRate(), w2.missRate() * 1.3);
    EXPECT_LT(w2.missRate(), fa.missRate() * 1.6);
}

TEST(Integration, BlockedBeatsWilliamsLayout)
{
    // Section 5.1's argument: Williams' representation needs 3
    // accesses per texel and conflicts between component planes; the
    // blocked RGBA representation generates far less memory traffic.
    LayoutParams williams;
    williams.kind = LayoutKind::Williams;
    SceneLayout lw(fix().scene, williams);
    SceneLayout lb(fix().scene, paddedParams());

    CacheConfig cache{16 * 1024, 64, 2};
    CacheStats sw = runCache(fix().out.trace, lw, cache);
    CacheStats sb = runCache(fix().out.trace, lb, cache);
    // Three accesses per texel for Williams.
    EXPECT_EQ(sw.accesses, fix().out.trace.size() * 3);
    EXPECT_EQ(sb.accesses, fix().out.trace.size());
    // And more fetched bytes overall.
    EXPECT_GT(sw.bytesFetched(cache.lineBytes),
              sb.bytesFetched(cache.lineBytes));
}

TEST(Integration, TraceReplayEqualsInlineSimulation)
{
    // The factored replay path (trace -> layout -> cache) must agree
    // with feeding the cache during rendering via onFragment.
    SceneLayout layout(fix().scene, paddedParams());
    CacheConfig config{16 * 1024, 128, 2};

    CacheStats replay = runCache(fix().out.trace, layout, config);

    CacheSim inline_cache(config);
    RenderOptions opts;
    opts.captureTrace = false;
    opts.writeFramebuffer = false;
    opts.onFragment = [&](const Fragment &, const SampleResult &s,
                          uint16_t tex) {
        for (unsigned i = 0; i < s.numTouches; ++i) {
            Addr out[3];
            unsigned n = layout.layout(tex).addresses(
                {s.touches[i].level, s.touches[i].u, s.touches[i].v},
                out);
            for (unsigned j = 0; j < n; ++j)
                inline_cache.access(out[j]);
        }
    };
    render(fix().scene, RasterOrder::tiledOrder(8, 8), opts);

    EXPECT_EQ(inline_cache.stats().accesses, replay.accesses);
    EXPECT_EQ(inline_cache.stats().misses, replay.misses);
}

TEST(Integration, PaddingNeverIncreasesMissesMuch)
{
    // Padding exists to remove conflicts; on a fully associative
    // cache it must be essentially neutral (same texels, same lines
    // per block).
    LayoutParams blocked = paddedParams();
    blocked.kind = LayoutKind::Blocked;
    SceneLayout lb(fix().scene, blocked);
    SceneLayout lp(fix().scene, paddedParams());
    CacheConfig fa{16 * 1024, 128, CacheConfig::kFullyAssoc};
    CacheStats sb = runCache(fix().out.trace, lb, fa);
    CacheStats sp = runCache(fix().out.trace, lp, fa);
    EXPECT_NEAR(static_cast<double>(sp.misses),
                static_cast<double>(sb.misses),
                static_cast<double>(sb.misses) * 0.02 + 16);
}
