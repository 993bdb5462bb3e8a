/**
 * @file
 * Exactness tests for the replay engine: set-partitioned CacheSim
 * shards and time-partitioned stack-distance passes must merge to
 * byte-identical statistics against the plain per-address simulators
 * of tests/oracle.hh, for every organization and shard count - that
 * is the whole contract (cache/shard_sim.hh, core/shard_replay.hh).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/shard_sim.hh"
#include "cache/stack_dist.hh"
#include "cache/three_c.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/scene_layout.hh"
#include "core/shard_replay.hh"
#include "core/sweep.hh"
#include "oracle.hh"
#include "thread_env.hh"
#include "trace/chunked_trace.hh"
#include "trace/trace_source.hh"

using namespace texcache;

namespace {

/** A reuse-heavy synthetic address stream: random walk over a bounded
 *  footprint plus periodic returns to a hot region, so every stack
 *  distance band and both hit paths get exercised. */
std::vector<Addr>
syntheticStream(uint32_t seed, size_t n, uint64_t footprint)
{
    Rng rng(seed);
    std::vector<Addr> a;
    a.reserve(n);
    uint64_t cur = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rng.below(8) == 0)
            cur = rng.below(256) * 4; // hot region revisit
        else
            cur = (cur + rng.below(2048)) % footprint;
        a.push_back(cur);
    }
    return a;
}

void
expectStatsEq(const CacheStats &got, const CacheStats &want,
              const std::string &what)
{
    EXPECT_EQ(got.accesses, want.accesses) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.coldMisses, want.coldMisses) << what;
    EXPECT_EQ(got.evictions, want.evictions) << what;
}

/** Histogram equality modulo trailing zeros (merged histograms may be
 *  sized differently than the serial profiler's). */
void
expectHistEq(const std::vector<uint64_t> &got,
             const std::vector<uint64_t> &want)
{
    size_t n = std::max(got.size(), want.size());
    for (size_t d = 0; d < n; ++d) {
        uint64_t g = d < got.size() ? got[d] : 0;
        uint64_t w = d < want.size() ? want[d] : 0;
        EXPECT_EQ(g, w) << "histogram bin " << d;
    }
}

/** Run the time-partitioned pass over @p cuts-defined segments and
 *  merge. Segments are replayed in order, as the sharded runner's
 *  merge step does. */
ShardedStackProfile
segmentedProfile(const std::vector<Addr> &a, unsigned line_bytes,
                 const std::vector<size_t> &cuts)
{
    std::vector<StackShardPass> passes;
    size_t begin = 0;
    for (size_t cut : cuts) {
        StackSegmentPass pass(line_bytes);
        pass.accessRange(a.data() + begin, cut - begin);
        passes.push_back(pass.finish());
        begin = cut;
    }
    StackSegmentPass last(line_bytes);
    last.accessRange(a.data() + begin, a.size() - begin);
    passes.push_back(last.finish());
    return mergeStackShards(passes, line_bytes);
}

std::vector<size_t>
evenCuts(size_t n, unsigned segs)
{
    std::vector<size_t> cuts;
    for (unsigned s = 1; s < segs; ++s)
        cuts.push_back(n * s / segs);
    return cuts;
}

} // namespace

// ---- Set partitioning ----------------------------------------------

namespace {

/** Feed @p a to every shard of @p sim the way the set pass does:
 *  spans of @p span_len addresses, @p window spans per window, each
 *  window scattered and then replayed sim by sim. */
void
feedSetShards(SetShardSim &sim, const std::vector<Addr> &a,
              size_t span_len, size_t window)
{
    std::vector<SetShardSim::Span> spans(window);
    for (size_t i = 0; i < a.size();) {
        size_t n = 0;
        for (; n < window && i < a.size(); ++n) {
            size_t take = std::min(span_len, a.size() - i);
            spans[n].addrs.assign(a.begin() + i, a.begin() + i + take);
            sim.scatter(spans[n]);
            i += take;
        }
        for (size_t s = 0; s < sim.sims(); ++s)
            sim.replay(s, spans.data(), n);
    }
}

} // namespace

TEST(SetShard, MergesExactlyAcrossConfigsAndShardCounts)
{
    std::vector<Addr> a = syntheticStream(7, 60000, 1 << 18);
    std::vector<CacheConfig> configs;
    Rng rng(11);
    const uint64_t sizes[] = {8 << 10, 16 << 10, 32 << 10, 64 << 10};
    const unsigned lines[] = {16, 32, 64};
    const unsigned assocs[] = {1, 2, 4, 8, CacheConfig::kFullyAssoc};
    for (int i = 0; i < 8; ++i)
        configs.push_back({sizes[rng.below(4)], lines[rng.below(3)],
                           assocs[rng.below(5)]});
    // Fewer sets than most shard counts: 1, 2 and 4 sets.
    configs.push_back({256, 32, 8});
    configs.push_back({512, 32, 8});
    configs.push_back({1024, 64, 4});

    std::vector<CacheStats> serial;
    for (const CacheConfig &c : configs) {
        CacheSim sim(c);
        for (Addr addr : a)
            sim.access(addr);
        serial.push_back(sim.stats());
    }

    for (unsigned shards : {1u, 2u, 3u, 4u, 5u, 8u}) {
        SetShardSim sim(configs, shards);
        feedSetShards(sim, a, 4093, 3);
        std::vector<CacheStats> merged = sim.stats();
        ASSERT_EQ(merged.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i)
            expectStatsEq(merged[i], serial[i],
                          configs[i].str() + " @" +
                              std::to_string(shards) + " shards");
    }
}

TEST(SetShard, EveryAccessLandsOnExactlyOneShard)
{
    std::vector<Addr> a = syntheticStream(3, 20000, 1 << 16);
    // 256 sets: split over every shard at every count, powers of two
    // or not. 1 set: whole spans, all on one shard.
    std::vector<CacheConfig> configs{{16 << 10, 32, 2}, {128, 32, 4}};
    for (unsigned shards : {2u, 3u, 4u, 5u, 8u}) {
        SetShardSim sim(configs, shards);
        feedSetShards(sim, a, 1000, 4);
        uint64_t total = 0;
        unsigned holders = 0;
        for (unsigned k = 0; k < shards; ++k) {
            std::vector<CacheStats> st = sim.shardStats(k);
            EXPECT_GT(st[0].accesses, 0u)
                << "shard " << k << " of " << shards << " got no sets";
            total += st[0].accesses;
            if (st[1].accesses) {
                ++holders;
                EXPECT_EQ(st[1].accesses, a.size());
            }
        }
        EXPECT_EQ(total, a.size()) << shards << " shards";
        EXPECT_EQ(holders, 1u) << shards << " shards";
    }
}

TEST(SetShard, ClaimsLongestFirstWhateverTheListOrder)
{
    std::vector<Addr> a = syntheticStream(5, 8000, 1 << 16);
    // At K = 4 buckets: 1 and 2 sets read whole spans; 4 to 32 split.
    std::vector<CacheConfig> configs{{256, 32, 8},     {1 << 10, 32, 1},
                                     {512, 32, 8},     {4 << 10, 32, 8},
                                     {2 << 10, 32, 2}, {512, 32, 4}};
    const std::vector<size_t> perm{3, 0, 5, 1, 4, 2};
    std::vector<CacheConfig> permuted;
    for (size_t i : perm)
        permuted.push_back(configs[i]);

    // Replay one sim; return the position of the configuration whose
    // statistics moved, and by how many accesses.
    auto replayOne = [](SetShardSim &sim, const SetShardSim::Span &span,
                        size_t i) {
        std::vector<CacheStats> before = sim.stats();
        sim.replay(i, &span, 1);
        std::vector<CacheStats> after = sim.stats();
        for (size_t c = 0; c < after.size(); ++c)
            if (after[c].accesses != before[c].accesses)
                return std::make_pair(c, after[c].accesses -
                                             before[c].accesses);
        return std::make_pair(after.size(), uint64_t(0));
    };

    for (unsigned shards : {3u, 4u}) {
        SetShardSim x(configs, shards), y(permuted, shards);
        ASSERT_EQ(x.sims(), y.sims());
        SetShardSim::Span sx, sy;
        sx.addrs = sy.addrs = a;
        x.scatter(sx);
        y.scatter(sy);
        for (size_t i = 0; i < x.sims(); ++i) {
            auto [cx, nx] = replayOne(x, sx, i);
            auto [cy, ny] = replayOne(y, sy, i);
            ASSERT_LT(cx, configs.size());
            ASSERT_LT(cy, configs.size());
            EXPECT_EQ(cx, perm[cy]) << "sim " << i << " @" << shards;
            EXPECT_EQ(nx, ny) << "sim " << i << " @" << shards;
            // The two 8-way whole-span sims first, the one set first.
            if (i < 2) {
                EXPECT_EQ(cx, i == 0 ? 0u : 2u) << shards << " shards";
            }
        }
    }
}

// ---- Time partitioning ---------------------------------------------

TEST(StackShard, SegmentedProfileMatchesSerial)
{
    std::vector<Addr> a = syntheticStream(19, 50000, 1 << 17);
    StackDistProfiler serial(32);
    for (Addr addr : a)
        serial.access(addr);

    for (unsigned segs : {1u, 2u, 3u, 4u, 7u, 8u}) {
        ShardedStackProfile merged =
            segmentedProfile(a, 32, evenCuts(a.size(), segs));
        EXPECT_EQ(merged.accesses, serial.accesses()) << segs;
        EXPECT_EQ(merged.cold, serial.coldMisses()) << segs;
        expectHistEq(merged.histogram(), serial.histogram());
        for (uint64_t size = 32; size <= (1 << 18); size <<= 1)
            EXPECT_EQ(merged.misses(size), serial.misses(size))
                << segs << " segments @" << size << "B";
    }
}

TEST(StackShard, SkewedCutsMatchSerial)
{
    // Pathological partitions: a 1-access segment, an empty-adjacent
    // cut, and a giant tail must all reconcile exactly.
    std::vector<Addr> a = syntheticStream(23, 9000, 1 << 14);
    StackDistProfiler serial(64);
    for (Addr addr : a)
        serial.access(addr);
    ShardedStackProfile merged =
        segmentedProfile(a, 64, {1, 2, 17, 8000});
    EXPECT_EQ(merged.accesses, serial.accesses());
    EXPECT_EQ(merged.cold, serial.coldMisses());
    expectHistEq(merged.histogram(), serial.histogram());
}

TEST(StackShard, CyclicTopKPatternAcrossBoundaries)
{
    // <= 8 distinct lines cycles stay entirely inside the profiler's
    // top-K fast path; a boundary mid-cycle is the adversarial case
    // for finish()'s stack reconstruction (the map entries of top
    // lines are stale by design).
    std::vector<Addr> a;
    for (int rep = 0; rep < 400; ++rep)
        for (uint64_t line = 0; line < 7; ++line)
            a.push_back(line * 32);
    // Shift phase so segment boundaries never align with cycles.
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t line = 7; line-- > 2;)
            a.push_back(line * 32);

    StackDistProfiler serial(32);
    for (Addr addr : a)
        serial.access(addr);
    for (unsigned segs : {2u, 3u, 5u}) {
        ShardedStackProfile merged =
            segmentedProfile(a, 32, evenCuts(a.size(), segs));
        EXPECT_EQ(merged.cold, serial.coldMisses()) << segs;
        expectHistEq(merged.histogram(), serial.histogram());
    }
}

TEST(StackShard, OracleDistancesAreGlobal)
{
    LruStackOracle o;
    EXPECT_EQ(o.touch(1), 0u); // cold
    EXPECT_EQ(o.touch(2), 0u); // cold; stack: 2,1
    EXPECT_EQ(o.touch(1), 2u); // stack: 1,2
    EXPECT_EQ(o.touch(2), 2u); // stack: 2,1
    o.promote(1);              // stack: 1,2
    EXPECT_EQ(o.touch(2), 2u);
    EXPECT_EQ(o.touch(2), 1u);
    EXPECT_EQ(o.lines(), 2u);
}

TEST(StackShard, OraclePromoteOfAbsentLineDies)
{
    LruStackOracle o;
    o.touch(1);
    EXPECT_DEATH(o.promote(99), "absent");
}

// ---- Core runners over rendered traces -----------------------------

namespace {

struct Fixture
{
    SceneSpec spec = SceneSpec::quadScene(64, 128, 2.0f);
    RasterOrder order = RasterOrder::horizontal();
    TraceStore store;
    Scene scene = spec.build();
    SceneLayout layout;
    const TexelTrace &trace;

    Fixture()
        : layout(scene,
                 [] {
                     LayoutParams p;
                     p.kind = LayoutKind::Nonblocked;
                     return p;
                 }()),
          trace(store.trace(spec, order))
    {}
};

Fixture &
fix()
{
    static Fixture f;
    return f;
}

std::vector<CacheConfig>
testConfigs()
{
    return {{8 << 10, 32, 1},
            {8 << 10, 32, CacheConfig::kFullyAssoc},
            {16 << 10, 64, 4},
            {32 << 10, 32, 2},
            {32 << 10, 64, CacheConfig::kFullyAssoc}};
}

} // namespace

TEST(ShardReplay, SweepMatchesOracleAtEveryShardAndThreadCount)
{
    Fixture &f = fix();
    std::vector<CacheConfig> configs = testConfigs();
    std::vector<CacheStats> want = oracle::sweep(f.trace, f.layout, configs);

    MemoryTraceSource mem(f.trace);
    for (const char *threads : {"1", "8"}) {
        ThreadEnv env(threads);
        std::vector<CacheStats> derived =
            runCacheSweep(f.trace, f.layout, configs);
        for (size_t i = 0; i < configs.size(); ++i)
            expectStatsEq(derived[i], want[i],
                          "derived " + configs[i].str() + " @" + threads);
        for (unsigned shards : {1u, 2u, 3u, 5u, 8u}) {
            std::vector<CacheStats> got =
                runCacheSweepSharded(mem, f.layout, configs, shards);
            for (size_t i = 0; i < configs.size(); ++i)
                expectStatsEq(got[i], want[i],
                              configs[i].str() + " @" +
                                  std::to_string(shards) + " shards, " +
                                  threads + " threads");
        }
    }
}

TEST(ShardReplay, SetPassMatchesSerialAtEveryShardAndThreadCount)
{
    Fixture &f = fix();
    // Set counts from 1 to 512 fall below, on and above every shard
    // count, at two line sizes.
    std::vector<CacheConfig> configs{
        {128, 32, 4},      // 1 set
        {512, 64, 4},      // 2 sets
        {512, 32, 4},      // 4 sets
        {2 << 10, 64, 4},  // 8 sets
        {16 << 10, 64, 4}, // 64 sets
        {8 << 10, 32, 1},  // 256 sets
        {32 << 10, 32, 2}, // 512 sets
    };

    // One frame is shorter than a window at every shard count; the
    // frame-replicated file spans two windows or more at every one.
    const uint64_t frames = 2 * 8 * (1 << 18) / f.trace.size() + 1;
    TexelTrace many;
    many.reserve(f.trace.size() * frames);
    for (uint64_t i = 0; i < frames; ++i)
        many.appendPacked(f.trace.packed().data(), f.trace.size());
    std::vector<CacheStats> serialOne =
        oracle::sweep(f.trace, f.layout, configs);
    std::vector<CacheStats> serialMany =
        oracle::sweep(many, f.layout, configs);

    std::string dir = ::testing::TempDir() + "texcache-set-pass";
    std::filesystem::create_directories(dir);
    MemoryTraceSource one(f.trace);
    FileTraceSource file(f.store.spillTrace(f.spec, f.order, dir), frames);
    ASSERT_EQ(file.records(), many.size());

    for (const char *threads : {"1", "8"}) {
        ThreadEnv env(threads);
        for (unsigned shards : {1u, 2u, 3u, 4u, 5u, 8u}) {
            std::string at = " @" + std::to_string(shards) + " shards, " +
                             threads + " threads";
            std::vector<CacheStats> gotOne =
                runCacheSweepSharded(one, f.layout, configs, shards);
            std::vector<CacheStats> gotMany =
                runCacheSweepSharded(file, f.layout, configs, shards);
            for (size_t i = 0; i < configs.size(); ++i) {
                expectStatsEq(gotOne[i], serialOne[i],
                              "memory " + configs[i].str() + at);
                expectStatsEq(gotMany[i], serialMany[i],
                              "file " + configs[i].str() + at);
            }
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardReplay, SingleReplayDerivesFaEvictions)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    // The FA single-replay path goes through the stack profiler and
    // *derives* evictions; the plain CacheSim counts them in an
    // explicit FA LRU cache. They must agree - including the eviction
    // count.
    CacheConfig fa{8 << 10, 32, CacheConfig::kFullyAssoc};
    CacheStats serial = oracle::run(f.trace, f.layout, fa);
    ASSERT_GT(serial.evictions, 0u);
    expectStatsEq(runCacheSharded(mem, f.layout, fa, 4), serial,
                  "fa single");
    expectStatsEq(runCache(f.trace, f.layout, fa), serial, "fa derived");
    CacheConfig sa{16 << 10, 32, 2};
    expectStatsEq(runCacheSharded(mem, f.layout, sa, 4),
                  oracle::run(f.trace, f.layout, sa), "sa single");
}

TEST(ShardReplay, ClassificationMatchesSerial)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    for (CacheConfig c : {CacheConfig{16 << 10, 32, 2},
                          CacheConfig{8 << 10, 32, 1},
                          CacheConfig{8 << 10, 64, CacheConfig::kFullyAssoc}}) {
        MissBreakdown want = oracle::classify(f.trace, f.layout, c);
        for (unsigned shards : {0u, 1u, 4u}) {
            MissBreakdown got = classifySharded(mem, f.layout, c, shards);
            std::string at = c.str() + " @" + std::to_string(shards);
            EXPECT_EQ(got.accesses, want.accesses) << at;
            EXPECT_EQ(got.misses, want.misses) << at;
            EXPECT_EQ(got.cold, want.cold) << at;
            EXPECT_EQ(got.capacity, want.capacity) << at;
            EXPECT_EQ(got.conflict, want.conflict) << at;
        }
    }
}

TEST(ShardReplay, ProfileMatchesSerialAtAllSizes)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    StackDistProfiler serial = oracle::profile(f.trace, f.layout, 32);
    ShardedStackProfile merged =
        profileTraceSharded(mem, f.layout, 32, 4);
    EXPECT_EQ(merged.accesses, serial.accesses());
    EXPECT_EQ(merged.cold, serial.coldMisses());
    for (uint64_t size : cacheSizeSweep(1 << 10, 1 << 20))
        EXPECT_EQ(merged.misses(size), serial.misses(size))
            << size << "B";
}

TEST(ShardReplay, FaSweepMatchesProfiler)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    std::vector<uint64_t> sizes = cacheSizeSweep(4 << 10, 256 << 10);
    std::vector<CacheStats> sharded =
        runFaSweepSharded(mem, f.layout, 32, sizes, 3);
    StackDistProfiler serial = oracle::profile(f.trace, f.layout, 32);
    ASSERT_EQ(sharded.size(), sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(sharded[i].accesses, serial.accesses());
        uint64_t misses = serial.misses(sizes[i]);
        EXPECT_EQ(sharded[i].misses, misses);
        EXPECT_EQ(sharded[i].coldMisses, serial.coldMisses());
        // A capacity sweep reports evictions as every runner does:
        // what a flush-free FA LRU cache of that size counts.
        EXPECT_EQ(sharded[i].evictions,
                  misses - std::min<uint64_t>(sizes[i] / 32, misses));
    }
}

TEST(ShardReplay, FileSourceMatchesMemorySource)
{
    Fixture &f = fix();
    std::string dir = ::testing::TempDir() + "texcache-shard-replay";
    std::filesystem::create_directories(dir);
    std::string path = f.store.spillTrace(f.spec, f.order, dir);

    // The spilled stream is byte-identical to the materialized trace.
    ChunkedTraceFile cf = ChunkedTraceFile::mustOpen(path);
    TexelTrace back = cf.readAll();
    ASSERT_EQ(back.size(), f.trace.size());
    EXPECT_TRUE(back.packed() == f.trace.packed());

    FileTraceSource file(path);
    MemoryTraceSource mem(f.trace);
    std::vector<CacheConfig> configs = testConfigs();
    std::vector<CacheStats> fromFile =
        runCacheSweepSharded(file, f.layout, configs, 3);
    std::vector<CacheStats> fromMem =
        runCacheSweepSharded(mem, f.layout, configs, 3);
    for (size_t i = 0; i < configs.size(); ++i)
        expectStatsEq(fromFile[i], fromMem[i], configs[i].str());
    std::filesystem::remove_all(dir);
}

TEST(ShardReplay, FrameReplicationMatchesConcatenation)
{
    Fixture &f = fix();
    TexelTrace three;
    three.reserve(f.trace.size() * 3);
    for (int i = 0; i < 3; ++i)
        three.appendPacked(f.trace.packed().data(), f.trace.size());

    MemoryTraceSource replicated(f.trace, 3);
    EXPECT_EQ(replicated.records(), three.size());
    std::vector<CacheConfig> configs = testConfigs();
    std::vector<CacheStats> serial =
        oracle::sweep(three, f.layout, configs);
    std::vector<CacheStats> sharded =
        runCacheSweepSharded(replicated, f.layout, configs, 4);
    for (size_t i = 0; i < configs.size(); ++i)
        expectStatsEq(sharded[i], serial[i], configs[i].str());

    // And the FA profile over the replicated stream.
    StackDistProfiler serialProf = oracle::profile(three, f.layout, 32);
    ShardedStackProfile prof =
        profileTraceSharded(replicated, f.layout, 32, 4);
    EXPECT_EQ(prof.accesses, serialProf.accesses());
    EXPECT_EQ(prof.cold, serialProf.coldMisses());
    for (uint64_t size : cacheSizeSweep(1 << 10, 1 << 19))
        EXPECT_EQ(prof.misses(size), serialProf.misses(size));
}

TEST(ShardReplay, ResolveShardsDerivesFromStreamLength)
{
    // One shard per 2^18 records, at least one, at most the pool.
    for (const char *threads : {"1", "4", "8"}) {
        ThreadEnv env(threads);
        unsigned pool = Sweep::threadCount();
        for (uint64_t records : {0ull, 1ull, 44944ull, (1ull << 19) - 1})
            EXPECT_EQ(resolveShards(0, records), 1u) << records;
        for (uint64_t records :
             {1ull << 19, 3ull << 18, 1ull << 20, 7900000ull, 1ull << 34}) {
            unsigned got = resolveShards(0, records);
            EXPECT_LE(got, pool) << records;
            EXPECT_EQ(got, std::min<uint64_t>(records >> 18, pool))
                << records;
        }
        // Explicit counts pass through, whatever the stream or pool.
        for (unsigned shards : {1u, 3u, 5u, 64u})
            EXPECT_EQ(resolveShards(shards, 100), shards);
    }
}
