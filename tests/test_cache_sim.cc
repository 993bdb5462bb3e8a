/** @file Unit and property tests for the trace-driven cache simulator. */

#include <gtest/gtest.h>

#include "cache/cache_sim.hh"
#include "common/rng.hh"

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
