/** @file
 * Integration tests for the experiment harness: trace -> layout ->
 * cache simulation, cross-validating the fast paths against the
 * explicit simulators.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/scene_layout.hh"
#include "oracle.hh"
#include "trace/chunked_trace.hh"

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

/** A fresh trace cache directory, exported as TEXCACHE_TRACE_CACHE_DIR
 *  while the guard lives. */
class CacheDir
{
  public:
    explicit CacheDir(const std::string &name)
        : path(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
        setenv("TEXCACHE_TRACE_CACHE_DIR", path.c_str(), 1);
    }
    ~CacheDir()
    {
        unsetenv("TEXCACHE_TRACE_CACHE_DIR");
        std::filesystem::remove_all(path);
    }
    CacheDir(const CacheDir &) = delete;
    CacheDir &operator=(const CacheDir &) = delete;

    const std::string path;
};

/** Write @p trace to @p path as a finalized chunked trace. */
void
writeChunked(const TexelTrace &trace, const std::string &path)
{
    ChunkedTraceWriter w(path);
    w.append(trace.packed().data(), trace.size());
    w.finalize();
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The trace a TraceStore renders for (spec, order), rendered afresh. */
TexelTrace
freshTrace(const SceneSpec &spec, const RasterOrder &order)
{
    RenderOptions opts;
    opts.writeFramebuffer = false;
    return render(spec.build(), order, opts).trace;
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

TEST(SceneLayout, MapPackedMatchesTextureLayout)
{
    // mapPacked's per-kind loop and TextureLayout::addresses() read the
    // same level maps; every kind must agree record by record.
    const TexelTrace &trace = fix().out.trace;
    for (LayoutKind k :
         {LayoutKind::Williams, LayoutKind::Nonblocked,
          LayoutKind::Blocked, LayoutKind::PaddedBlocked,
          LayoutKind::Blocked6D, LayoutKind::CompressedBlocked}) {
        LayoutParams p;
        p.kind = k;
        SceneLayout lay(fix().scene, p);
        std::vector<Addr> mapped;
        lay.mapRange(trace, 0, trace.size(), mapped);
        std::vector<Addr> direct;
        for (uint64_t rec : trace.packed()) {
            TexelRecord r = TexelRecord::unpack(rec);
            Addr a[3];
            unsigned n =
                lay.layout(r.texture).addresses({r.level, r.u, r.v}, a);
            direct.insert(direct.end(), a, a + n);
        }
        EXPECT_EQ(mapped, direct) << layoutKindName(k);
    }
}

TEST(SceneLayout, RejectsRecordsOutsideTheScene)
{
    // The fixture scene holds one 128x128 texture: levels 0..7.
    LayoutParams p;
    p.kind = LayoutKind::PaddedBlocked;
    SceneLayout lay(fix().scene, p);
    auto map = [&](uint16_t tex, uint16_t level, uint16_t u, uint16_t v) {
        // The bad record follows a good one inside the span.
        uint64_t recs[2] = {
            TexelRecord{0, 0, 0, 0, TouchKind::Bilinear}.pack(),
            TexelRecord{tex, level, u, v, TouchKind::Bilinear}.pack()};
        std::vector<Addr> out;
        lay.mapPacked(recs, 2, out);
    };
    map(0, 7, 0, 0); // the coarsest texel is in range
    EXPECT_EXIT(map(1, 0, 0, 0), ::testing::ExitedWithCode(1),
                "outside the scene: texture 1, level 0, texel \\(0, 0\\); "
                "scene textures: 1");
    EXPECT_EXIT(map(0, 8, 0, 0), ::testing::ExitedWithCode(1),
                "texture 0, level 8, texel \\(0, 0\\); texture levels: 8");
    EXPECT_EXIT(map(0, 0, 128, 5), ::testing::ExitedWithCode(1),
                "texel \\(128, 5\\); level size: 128x128");
    EXPECT_EXIT(map(0, 0, 5, 128), ::testing::ExitedWithCode(1),
                "texel \\(5, 128\\); level size: 128x128");
    EXPECT_EXIT(map(0, 7, 1, 0), ::testing::ExitedWithCode(1),
                "level 7, texel \\(1, 0\\); level size: 1x1");
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
    CacheDir dir("texcache-poison-test");

    // Plant a valid but poisoned (clearly wrong) trace at the
    // *previous* revision's path for this (scene, order, build).
    RasterOrder order = RasterOrder::horizontal();
    std::string stale = traceCachePath(BenchScene::Goblet, order, "",
                                       kRenderPathRevision - 1);
    ASSERT_FALSE(stale.empty());
    TexelTrace poison;
    poison.append(TexelRecord{1, 2, 3, 0, TouchKind::Nearest});
    writeChunked(poison, stale);

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
}

TEST(TraceStore, RejectedCacheEntryIsReRendered)
{
    // A cache file the chunked reader rejects is re-rendered in place,
    // never served and never fatal().
    SceneSpec spec = SceneSpec::quadScene(32, 64, 1.0f);
    RasterOrder order = RasterOrder::horizontal();
    TexelTrace fresh = freshTrace(spec, order);
    ASSERT_GT(fresh.size(), 1u);
    CacheDir dir("texcache-reject-test");
    std::string path = traceCachePath(spec, order);

    const std::pair<const char *,
                    std::function<void(const std::string &)>>
        defects[] = {
            {"unfinalized",
             [&](const std::string &p) {
                 // A writer torn down before finalize().
                 ChunkedTraceWriter w(p);
                 w.append(fresh.packed().data(), fresh.size());
             }},
            {"truncated",
             [&](const std::string &p) {
                 writeChunked(fresh, p);
                 std::filesystem::resize_file(
                     p, std::filesystem::file_size(p) - 8);
             }},
            {"bad magic",
             [&](const std::string &p) {
                 writeChunked(fresh, p);
                 std::fstream f(p, std::ios::binary | std::ios::in |
                                       std::ios::out);
                 f.write("BADMAGIC", 8);
             }},
        };
    for (const auto &[name, damage] : defects) {
        damage(path);
        ChunkedTraceFile f;
        TraceFileError err;
        ASSERT_FALSE(f.open(path, err)) << name;

        TraceStore store;
        const TexelTrace &t = store.trace(spec, order);
        EXPECT_EQ(store.renders(), 1u) << name;
        EXPECT_EQ(store.diskHits(), 0u) << name;
        EXPECT_TRUE(t.packed() == fresh.packed()) << name;
        EXPECT_TRUE(f.open(path, err)) << name << ": " << err.str();
        EXPECT_TRUE(f.readAll().packed() == fresh.packed()) << name;
    }
}

TEST(TraceStore, TraceAndSpillShareOneEntry)
{
    SceneSpec spec = SceneSpec::quadScene(32, 64, 1.0f);
    RasterOrder order = RasterOrder::horizontal();
    TexelTrace fresh = freshTrace(spec, order);
    CacheDir dir("texcache-shared-test");

    // A spilled trace is a disk hit for trace(), with a fresh render's
    // bytes.
    std::string path = TraceStore().spillTrace(spec, order, dir.path);
    EXPECT_EQ(path, traceCachePath(spec, order));
    std::string spilled = fileBytes(path);
    TraceStore reader;
    EXPECT_TRUE(reader.trace(spec, order).packed() == fresh.packed());
    EXPECT_EQ(reader.diskHits(), 1u);
    EXPECT_EQ(reader.renders(), 0u);

    // output() writes the same file byte for byte, and spillTrace()
    // then reuses it without rendering.
    std::filesystem::remove(path);
    TraceStore store;
    store.output(spec, order);
    EXPECT_EQ(fileBytes(path), spilled);
    EXPECT_EQ(store.spillTrace(spec, order), path);
    EXPECT_EQ(store.renders(), 1u);
    EXPECT_EQ(store.diskHits(), 1u);
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
