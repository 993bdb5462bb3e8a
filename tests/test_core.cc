/** @file
 * Integration tests for the experiment harness: trace -> layout ->
 * cache simulation, cross-validating the fast paths against the
 * explicit simulators.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/scene_layout.hh"
#include "oracle.hh"
#include "trace/trace_io.hh"

using namespace texcache;

namespace {

/** A shared small scene + trace for the whole file (built once). */
struct Fixture
{
    Scene scene = makeQuadTestScene(128, 160, 2.0f);
    RenderOutput out = render(scene, RasterOrder::horizontal());
};

Fixture &
fix()
{
    static Fixture f;
    return f;
}

} // namespace

TEST(SceneLayout, AddressCountMatchesTraceSize)
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout lay(fix().scene, p);
    uint64_t n = 0;
    lay.forEachAddress(fix().out.trace, [&](Addr) { ++n; });
    EXPECT_EQ(n, fix().out.trace.size());
}

TEST(SceneLayout, WilliamsTriplesTheAddressStream)
{
    LayoutParams p;
    p.kind = LayoutKind::Williams;
    SceneLayout lay(fix().scene, p);
    uint64_t n = 0;
    lay.forEachAddress(fix().out.trace, [&](Addr) { ++n; });
    EXPECT_EQ(n, fix().out.trace.size() * 3);
}

TEST(SceneLayout, FootprintCoversAllTextures)
{
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    SceneLayout lay(fix().scene, p);
    EXPECT_EQ(lay.numTextures(), fix().scene.textures.size());
    uint64_t texel_bytes = 0;
    for (const MipMap &m : fix().scene.textures)
        texel_bytes += m.storageBytes();
    EXPECT_GE(lay.totalFootprint(), texel_bytes);
}

TEST(Experiment, ProfilerMatchesExplicitFaCache)
{
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    p.blockW = p.blockH = 4;
    SceneLayout lay(fix().scene, p);
    ShardedStackProfile prof = profileTrace(fix().out.trace, lay, 32);
    for (uint64_t size : {2048u, 8192u, 32768u}) {
        CacheStats fa = oracle::run(
            fix().out.trace, lay,
            {size, 32, CacheConfig::kFullyAssoc});
        EXPECT_EQ(prof.misses(size), fa.misses) << "size " << size;
        EXPECT_EQ(prof.accesses, fa.accesses);
        EXPECT_EQ(prof.coldMisses(), fa.coldMisses);
    }
}

TEST(Experiment, MissRatesDecreaseWithAssociativityOnAverage)
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout lay(fix().scene, p);
    CacheStats dm = runCache(fix().out.trace, lay, {4096, 32, 1});
    CacheStats fa = runCache(fix().out.trace, lay,
                             {4096, 32, CacheConfig::kFullyAssoc});
    EXPECT_GE(dm.misses, fa.misses);
}

TEST(Experiment, ClassifierIdentity)
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout lay(fix().scene, p);
    MissBreakdown b =
        classifyCache(fix().out.trace, lay, {4096, 32, 2});
    EXPECT_EQ(b.cold + b.capacity + b.conflict, b.misses);
    EXPECT_EQ(b.accesses, fix().out.trace.size());
}

TEST(Experiment, CacheSizeSweepIsPowerOfTwo)
{
    auto sizes = cacheSizeSweep(1024, 65536);
    ASSERT_EQ(sizes.size(), 7u);
    EXPECT_EQ(sizes.front(), 1024u);
    EXPECT_EQ(sizes.back(), 65536u);
    for (size_t i = 1; i < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], sizes[i - 1] * 2);
}

TEST(Experiment, FirstWorkingSetFindsThePlateau)
{
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    SceneLayout lay(fix().scene, p);
    ShardedStackProfile prof = profileTrace(fix().out.trace, lay, 32);
    auto sizes = cacheSizeSweep(1024, 256 * 1024);
    uint64_t ws = firstWorkingSet(prof, sizes);
    EXPECT_GE(ws, sizes.front());
    EXPECT_LE(ws, sizes.back());
    // By definition, the working-set size captures >= 85% of the
    // achievable miss-rate reduction.
    double top = prof.missRate(sizes.front());
    double floor_rate = prof.missRate(sizes.back());
    EXPECT_LE(prof.missRate(ws),
              top - 0.85 * (top - floor_rate) + 1e-12);
}

TEST(Experiment, BlockedBeatsNonblockedAtLargeLines)
{
    // The paper's core finding (section 5.3.2): with a large line, a
    // blocked representation exploits spatial locality much better
    // than the row-major one on a 2-D access pattern.
    LayoutParams pn;
    pn.kind = LayoutKind::Nonblocked;
    LayoutParams pb;
    pb.kind = LayoutKind::Blocked;
    pb.blockW = pb.blockH = 8; // 8x8 texels = 256 B... use 128 B: 8x4
    pb.blockH = 4;
    SceneLayout ln(fix().scene, pn);
    SceneLayout lb(fix().scene, pb);
    ShardedStackProfile profile_n = profileTrace(fix().out.trace, ln, 128);
    ShardedStackProfile profile_b = profileTrace(fix().out.trace, lb, 128);
    EXPECT_LT(profile_b.missRate(32 * 1024),
              profile_n.missRate(32 * 1024));
}

TEST(TraceStore, MemoizesScenesAndOutputs)
{
    TraceStore store;
    const Scene &a = store.scene(BenchScene::Goblet);
    const Scene &b = store.scene(BenchScene::Goblet);
    EXPECT_EQ(&a, &b);
    const RenderOutput &o1 =
        store.output(BenchScene::Goblet, RasterOrder::horizontal());
    const RenderOutput &o2 =
        store.output(BenchScene::Goblet, RasterOrder::horizontal());
    EXPECT_EQ(&o1, &o2);
    EXPECT_GT(o1.trace.size(), 0u);
    // A different order is a different cache entry.
    const RenderOutput &o3 =
        store.output(BenchScene::Goblet, RasterOrder::vertical());
    EXPECT_NE(&o1, &o3);
}

TEST(TraceStore, StaleRevisionCacheEntryIsNotServed)
{
    // Regression test for a poisoned on-disk trace cache: an entry
    // keyed by an older render-path revision must never satisfy the
    // current build, even within the same compilation stamp.
    std::string dir = ::testing::TempDir() + "texcache-poison-test";
    std::filesystem::remove_all(dir);
    setenv("TEXCACHE_TRACE_CACHE_DIR", dir.c_str(), 1);
    std::filesystem::create_directories(dir);

    // Plant a poisoned (clearly wrong) trace at the *previous*
    // revision's path for this (scene, order, build).
    RasterOrder order = RasterOrder::horizontal();
    std::string stale =
        traceCachePath(BenchScene::Goblet, order, kRenderPathRevision - 1);
    ASSERT_FALSE(stale.empty());
    TexelTrace poison;
    poison.append(TexelRecord{1, 2, 3, 0, TouchKind::Nearest});
    writeTrace(poison, stale);

    std::string current = traceCachePath(BenchScene::Goblet, order);
    ASSERT_NE(stale, current);
    ASSERT_FALSE(std::filesystem::exists(current));

    // The store must ignore the stale entry and render fresh...
    TraceStore store;
    const TexelTrace &fresh = store.trace(BenchScene::Goblet, order);
    EXPECT_EQ(store.diskHits(), 0u);
    EXPECT_EQ(store.renders(), 1u);
    EXPECT_GT(store.renderMillis(), 0.0);
    EXPECT_NE(fresh.size(), poison.size());

    // ...and populate the current-revision path, which a second store
    // then serves from disk, byte for byte.
    ASSERT_TRUE(std::filesystem::exists(current));
    TraceStore store2;
    const TexelTrace &cached = store2.trace(BenchScene::Goblet, order);
    EXPECT_EQ(store2.diskHits(), 1u);
    EXPECT_EQ(store2.renders(), 0u);
    EXPECT_TRUE(cached.packed() == fresh.packed());

    unsetenv("TEXCACHE_TRACE_CACHE_DIR");
    std::filesystem::remove_all(dir);
}

TEST(Experiment, FirstWorkingSetPanicsOnEmptySweep)
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout lay(fix().scene, p);
    ShardedStackProfile prof = profileTrace(fix().out.trace, lay, 32);
    std::vector<uint64_t> empty;
    EXPECT_DEATH(firstWorkingSet(prof, empty), "empty size sweep");
}

TEST(Experiment, LayoutKindNamesAreStable)
{
    EXPECT_STREQ(layoutKindName(LayoutKind::Williams), "williams");
    EXPECT_STREQ(layoutKindName(LayoutKind::Nonblocked), "nonblocked");
    EXPECT_STREQ(layoutKindName(LayoutKind::Blocked), "blocked");
    EXPECT_STREQ(layoutKindName(LayoutKind::PaddedBlocked), "padded");
    EXPECT_STREQ(layoutKindName(LayoutKind::Blocked6D), "blocked6d");
    EXPECT_STREQ(layoutKindName(LayoutKind::CompressedBlocked),
                 "compressed");
}

TEST(Experiment, StatsHelpersHandleZeroAccesses)
{
    CacheStats empty;
    EXPECT_DOUBLE_EQ(empty.missRate(), 0.0);
    EXPECT_EQ(empty.bytesFetched(64), 0u);
}

TEST(Experiment, BaseAlignIsHonored)
{
    LayoutParams fine;
    fine.kind = LayoutKind::Blocked;
    fine.baseAlign = 64;
    LayoutParams coarse = fine;
    coarse.baseAlign = 32768;
    SceneLayout a(fix().scene, fine);
    SceneLayout b(fix().scene, coarse);
    // Coarser alignment can only grow the footprint.
    EXPECT_LE(a.totalFootprint(), b.totalFootprint());
}

// ---- Streamed spills and the trace-cache size cap ------------------

namespace {

void
writeBytes(const std::string &path, size_t n)
{
    std::ofstream out(path, std::ios::binary);
    std::string buf(n, 'x');
    out.write(buf.data(), static_cast<std::streamsize>(n));
}

void
ageFile(const std::string &path, int seconds_ago)
{
    namespace fs = std::filesystem;
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(seconds_ago));
}

} // namespace

TEST(TraceCache, PruneEvictsLruUntilUnderCap)
{
    std::string dir = ::testing::TempDir() + "texcache-prune-test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    writeBytes(dir + "/a.trace", 100);
    writeBytes(dir + "/b.ctrace", 200);
    writeBytes(dir + "/c.tmp", 50);
    writeBytes(dir + "/unrelated.txt", 400); // never cache-managed
    ageFile(dir + "/a.trace", 3000);  // oldest -> first victim
    ageFile(dir + "/b.ctrace", 2000);
    ageFile(dir + "/c.tmp", 1000);

    // 350 cache bytes vs a 260 cap: evicting a (100) reaches 250.
    uint64_t removed = pruneTraceCache(dir, 260);
    EXPECT_EQ(removed, 100u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/a.trace"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/b.ctrace"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/c.tmp"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.txt"));

    // The keep file survives even when LRU order says otherwise.
    removed = pruneTraceCache(dir, 40, dir + "/b.ctrace");
    EXPECT_EQ(removed, 50u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/b.ctrace"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/c.tmp"));

    // Cap 0 = uncapped: nothing is touched.
    EXPECT_EQ(pruneTraceCache(dir, 0), 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/b.ctrace"));
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, CapParsesSuffixes)
{
    setenv("TEXCACHE_TRACE_CACHE_CAP", "512", 1);
    EXPECT_EQ(traceCacheCapBytes(), 512u);
    setenv("TEXCACHE_TRACE_CACHE_CAP", "64k", 1);
    EXPECT_EQ(traceCacheCapBytes(), 64u << 10);
    setenv("TEXCACHE_TRACE_CACHE_CAP", "3M", 1);
    EXPECT_EQ(traceCacheCapBytes(), 3u << 20);
    setenv("TEXCACHE_TRACE_CACHE_CAP", "2G", 1);
    EXPECT_EQ(traceCacheCapBytes(), 2ull << 30);
    setenv("TEXCACHE_TRACE_CACHE_CAP", "0", 1);
    EXPECT_EQ(traceCacheCapBytes(), 0u);
    unsetenv("TEXCACHE_TRACE_CACHE_CAP");
    EXPECT_EQ(traceCacheCapBytes(), 0u);
    setenv("TEXCACHE_TRACE_CACHE_CAP", "12parsecs", 1);
    EXPECT_EXIT(traceCacheCapBytes(), ::testing::ExitedWithCode(1),
                "TEXCACHE_TRACE_CACHE_CAP");
    unsetenv("TEXCACHE_TRACE_CACHE_CAP");
}

TEST(TraceStore, SpillTraceReusesValidFilesAndPrunes)
{
    std::string dir = ::testing::TempDir() + "texcache-spill-test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    SceneSpec spec = SceneSpec::quadScene(32, 64, 1.0f);
    RasterOrder order = RasterOrder::horizontal();
    TraceStore store;
    std::string path = store.spillTrace(spec, order, dir);
    EXPECT_EQ(store.renders(), 1u);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Second spill (fresh store, same build) reuses the file.
    TraceStore store2;
    EXPECT_EQ(store2.spillTrace(spec, order, dir), path);
    EXPECT_EQ(store2.renders(), 0u);
    EXPECT_EQ(store2.diskHits(), 1u);

    // A torn file (finalized flag never set) is re-rendered in place.
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    uint32_t zero = 0;
    f.seekp(24);
    f.write(reinterpret_cast<const char *>(&zero), sizeof(zero));
    f.close();
    TraceStore store3;
    EXPECT_EQ(store3.spillTrace(spec, order, dir), path);
    EXPECT_EQ(store3.renders(), 1u);

    // With a tiny cap, pruning after the spill never evicts the file
    // just produced.
    setenv("TEXCACHE_TRACE_CACHE_CAP", "1", 1);
    writeBytes(dir + "/old.trace", 1000);
    ageFile(dir + "/old.trace", 5000);
    TraceStore store4;
    EXPECT_EQ(store4.spillTrace(spec, order, dir), path);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(dir + "/old.trace"));
    unsetenv("TEXCACHE_TRACE_CACHE_CAP");
    std::filesystem::remove_all(dir);
}
