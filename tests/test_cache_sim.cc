/** @file Unit and property tests for the trace-driven cache simulator. */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "cache/cache_sim.hh"
#include "common/rng.hh"
#include "tracing/tracing.hh"

using namespace texcache;

TEST(CacheConfig, Geometry)
{
    CacheConfig c{32 * 1024, 32, 2};
    EXPECT_EQ(c.numLines(), 1024u);
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.str(), "32KB/32B/2way");

    CacheConfig fa{4096, 64, CacheConfig::kFullyAssoc};
    EXPECT_EQ(fa.numSets(), 1u);
    EXPECT_EQ(fa.str(), "4KB/64B/full");
}

TEST(CacheSim, HitsWithinLine)
{
    CacheSim c({1024, 32, 1});
    EXPECT_FALSE(c.access(0));  // miss: first touch
    EXPECT_TRUE(c.access(31));  // same line
    EXPECT_FALSE(c.access(32)); // next line
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().coldMisses, 2u);
}

TEST(CacheSim, DirectMappedConflict)
{
    // 1 KB direct mapped, 32 B lines -> 32 sets. Addresses 0 and 1024
    // map to set 0 and evict each other; 32 does not.
    CacheSim c({1024, 32, 1});
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(1024));
    EXPECT_FALSE(c.access(0));    // conflict miss, not cold
    EXPECT_FALSE(c.access(1024)); // conflict miss
    EXPECT_EQ(c.stats().misses, 4u);
    EXPECT_EQ(c.stats().coldMisses, 2u);
}

TEST(CacheSim, TwoWayAbsorbsPingPong)
{
    CacheSim c({1024, 32, 2});
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(1024));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(1024));
    // A third conflicting line evicts the LRU way (line 0); re-fetching
    // line 0 then evicts line 1024, leaving {2048, 0} resident.
    EXPECT_FALSE(c.access(2048));
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(2048));
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(1024));
}

TEST(CacheSim, LruEvictsLeastRecent)
{
    // Fully associative 4-line cache.
    CacheSim c({128, 32, CacheConfig::kFullyAssoc});
    c.access(0);
    c.access(32);
    c.access(64);
    c.access(96);
    c.access(0); // refresh line 0; LRU is now line 32
    c.access(128);
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(32)); // evicted
}

TEST(CacheSim, ResetClearsEverything)
{
    CacheSim c({1024, 32, 1});
    c.access(0);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_FALSE(c.access(0)); // cold again
    EXPECT_EQ(c.stats().coldMisses, 1u);
}

TEST(CacheSim, RejectsBadGeometry)
{
    EXPECT_EXIT(CacheSim({1000, 32, 1}), ::testing::ExitedWithCode(1),
                "powers of two");
    EXPECT_EXIT(CacheSim({32, 64, 1}), ::testing::ExitedWithCode(1),
                "line larger than cache");
}

TEST(FullyAssocLru, BasicHitMiss)
{
    FullyAssocLru c(128, 32); // 4 lines
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(16));
    c.access(32);
    c.access(64);
    c.access(96);
    c.access(0); // hit, refresh
    c.access(128);
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(32)); // evicted as LRU
}

TEST(FullyAssocLru, ColdMissesCountFirstTouches)
{
    FullyAssocLru c(64, 32); // 2 lines
    c.access(0);
    c.access(32);
    c.access(64); // evicts 0
    c.access(0);  // capacity miss, not cold
    EXPECT_EQ(c.stats().misses, 4u);
    EXPECT_EQ(c.stats().coldMisses, 3u);
}

TEST(FullyAssocLru, BytesFetched)
{
    FullyAssocLru c(64, 32);
    c.access(0);
    c.access(32);
    c.access(64);
    EXPECT_EQ(c.stats().bytesFetched(32), 3u * 32);
}

/**
 * Property: CacheSim configured fully associative and FullyAssocLru
 * must agree exactly on every access of a random-but-local trace.
 */
class FaEquivalence : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FaEquivalence, CacheSimMatchesFullyAssocLru)
{
    CacheSim a({2048, 32, CacheConfig::kFullyAssoc});
    FullyAssocLru b(2048, 32);
    Rng rng(GetParam());
    uint64_t cursor = 0;
    for (int i = 0; i < 20000; ++i) {
        // Random walk with occasional jumps, texture-access-like.
        if (rng.below(100) < 5)
            cursor = rng.below(1 << 16);
        else
            cursor = (cursor + rng.below(256)) & 0xffff;
        ASSERT_EQ(a.access(cursor), b.access(cursor)) << "access " << i;
    }
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().coldMisses, b.stats().coldMisses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaEquivalence,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

/**
 * Property: increasing associativity at fixed size never increases the
 * miss count on a local trace... not guaranteed in general (LRU
 * anomalies exist), but holds for these structured traces and guards
 * against gross set-indexing bugs.
 */
class AssocSweep : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(AssocSweep, FullyAssociativeBeatsDirectMappedOnPingPong)
{
    // Deliberate pathological trace: two power-of-two separated
    // streams.
    CacheSim dm({4096, 32, 1});
    CacheSim fa({4096, 32, CacheConfig::kFullyAssoc});
    Rng rng(GetParam());
    for (int i = 0; i < 5000; ++i) {
        uint64_t a = (i % 64) * 32;
        uint64_t b = a + 65536; // same set index in the DM cache
        dm.access(a);
        dm.access(b);
        fa.access(a);
        fa.access(b);
    }
    EXPECT_GT(dm.stats().misses, fa.stats().misses * 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssocSweep, ::testing::Values(7u));

TEST(CacheSim, FlushInvalidatesButKeepsColdTracking)
{
    // Section 3.2: the cache is flushed when textures change; the
    // refetch is a miss but not a *cold* miss.
    CacheSim c({1024, 32, 2});
    c.access(0);
    EXPECT_TRUE(c.access(0));
    c.flush();
    EXPECT_FALSE(c.access(0));
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().coldMisses, 1u);
}

TEST(FullyAssocLru, FlushInvalidatesButKeepsColdTracking)
{
    FullyAssocLru c(1024, 32);
    c.access(0);
    c.access(64);
    c.flush();
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(64));
    EXPECT_TRUE(c.access(0));
    EXPECT_EQ(c.stats().coldMisses, 2u);
    EXPECT_EQ(c.stats().misses, 4u);
}

namespace {

/** A texture-like stream: a random walk with occasional jumps, over a
 *  footprint a few times the cache's so all three miss kinds occur. */
std::vector<Addr>
walkStream(uint64_t seed, size_t n, uint64_t footprint)
{
    Rng rng(seed);
    std::vector<Addr> a;
    a.reserve(n);
    uint64_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rng.below(100) < 5)
            cursor = rng.below(footprint);
        else
            cursor = (cursor + rng.below(256)) % footprint;
        a.push_back(cursor);
    }
    return a;
}

/** Feed @p a through accessRange in uneven spans, empty ones too. */
void
feedUnevenSpans(CacheSim &sim, const std::vector<Addr> &a, uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = 0; i < a.size();) {
        size_t take = std::min<size_t>(a.size() - i, rng.below(700));
        sim.accessRange(a.data() + i, take);
        i += take;
    }
}

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.coldMisses, want.coldMisses);
    EXPECT_EQ(got.evictions, want.evictions);
}

} // namespace

/**
 * Property: the batched accessRange kernel is indistinguishable from
 * per-address access() - the same statistics, the same table state
 * (a per-address tail afterwards hits and misses alike) and, with
 * miss and texel tracing armed, the same recorded events. Covers the
 * way scan from direct-mapped to 8-way, a small fully associative
 * config (64 lines, still the way scan) and a large one (256 lines,
 * the FullyAssocLru delegation).
 */
class RangeKernel : public ::testing::TestWithParam<CacheConfig>
{};

TEST_P(RangeKernel, MatchesPerAddressAccess)
{
    const CacheConfig c = GetParam();
    std::vector<Addr> a = walkStream(c.sizeBytes + c.assoc, 40000,
                                     c.sizeBytes * 4);
    CacheSim ref(c), batched(c);
    for (Addr x : a)
        ref.access(x);
    feedUnevenSpans(batched, a, 17);
    expectSameStats(batched.stats(), ref.stats());
    ASSERT_GT(ref.stats().misses - ref.stats().coldMisses, 0u);

    for (Addr x : walkStream(99, 5000, c.sizeBytes * 4))
        ASSERT_EQ(batched.access(x), ref.access(x));
    expectSameStats(batched.stats(), ref.stats());
}

TEST_P(RangeKernel, TracedRangeRecordsTheSameEvents)
{
    const CacheConfig c = GetParam();
    std::vector<Addr> a = walkStream(7, 6000, c.sizeBytes * 4);
    auto record = [&](bool batched) {
        tracing::configure({tracing::kMisses | tracing::kTexels, 1,
                            1 << 16});
        CacheSim sim(c);
        if (batched)
            feedUnevenSpans(sim, a, 3);
        else
            for (Addr x : a)
                sim.access(x);
        std::vector<tracing::Event> evs = tracing::snapshotEvents();
        tracing::configure({0, 1, 1 << 16});
        return evs;
    };
    std::vector<tracing::Event> want = record(false);
    std::vector<tracing::Event> got = record(true);
    ASSERT_GE(want.size(), a.size());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << "event " << i;
        EXPECT_EQ(got[i].addr, want[i].addr) << "event " << i;
        EXPECT_EQ(got[i].cls, want[i].cls) << "event " << i;
        EXPECT_EQ(got[i].tag, want[i].tag) << "event " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RangeKernel,
    ::testing::Values(CacheConfig{4096, 32, 1}, CacheConfig{4096, 32, 2},
                      CacheConfig{8192, 64, 4}, CacheConfig{8192, 32, 8},
                      CacheConfig{2048, 32, CacheConfig::kFullyAssoc},
                      CacheConfig{8192, 32, CacheConfig::kFullyAssoc}),
    [](const ::testing::TestParamInfo<CacheConfig> &info) {
        std::string name = info.param.str();
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });
