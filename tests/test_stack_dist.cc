/** @file Tests for the Mattson stack-distance profiler. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/shard_sim.hh"
#include "cache/stack_dist.hh"
#include "common/rng.hh"
#include "oracle.hh"

using namespace texcache;

TEST(StackDist, ColdMissesAreFirstTouches)
{
    StackDistProfiler p(32);
    p.access(0);
    p.access(32);
    p.access(64);
    EXPECT_EQ(p.coldMisses(), 3u);
    EXPECT_EQ(p.accesses(), 3u);
    // All accesses cold -> every size misses all three.
    EXPECT_EQ(p.misses(1 << 20), 3u);
}

TEST(StackDist, ImmediateReuseHasDistanceOne)
{
    StackDistProfiler p(32);
    p.access(0);
    p.access(0);
    ASSERT_GT(p.histogram().size(), 1u);
    EXPECT_EQ(p.histogram()[1], 1u);
    // A 1-line cache (32 B) captures the reuse.
    EXPECT_EQ(p.misses(32), 1u);
}

TEST(StackDist, DistanceCountsDistinctIntermediates)
{
    StackDistProfiler p(32);
    p.access(0);
    p.access(32);
    p.access(32); // duplicate must not inflate the next distance
    p.access(64);
    p.access(0); // distance 3: lines {0, 32, 64}
    const auto &h = p.histogram();
    ASSERT_GT(h.size(), 3u);
    EXPECT_EQ(h[3], 1u);
    // 2-line cache misses the distance-3 reuse; 3-line cache hits it.
    EXPECT_EQ(p.misses(2 * 32), 3u + 1u);
    EXPECT_EQ(p.misses(3 * 32), 3u);
}

TEST(StackDist, MissesAreMonotonicInSize)
{
    StackDistProfiler p(32);
    Rng rng(5);
    uint64_t cur = 0;
    for (int i = 0; i < 50000; ++i) {
        cur = (cur + rng.below(512)) & 0x3ffff;
        p.access(cur);
    }
    uint64_t prev = ~0ULL;
    for (uint64_t size = 32; size <= (1 << 20); size <<= 1) {
        uint64_t m = p.misses(size);
        EXPECT_LE(m, prev);
        prev = m;
    }
    EXPECT_EQ(p.misses(1 << 30), p.coldMisses());
}

/**
 * Property: the profiler's miss count at size S equals an explicit
 * fully associative LRU simulation at size S (Mattson's theorem made
 * executable). This also exercises the Fenwick compaction paths.
 */
class StackDistEquivalence
    : public ::testing::TestWithParam<std::pair<uint64_t, unsigned>>
{};

TEST_P(StackDistEquivalence, MatchesExplicitLru)
{
    auto [seed, line] = GetParam();
    StackDistProfiler prof(line);
    Rng rng(seed);
    std::vector<uint64_t> trace;
    uint64_t cur = 0;
    for (int i = 0; i < 30000; ++i) {
        if (rng.below(100) < 3)
            cur = rng.below(1 << 18);
        else
            cur = (cur + rng.below(300)) & 0x3ffff;
        trace.push_back(cur);
        prof.access(cur);
    }
    for (uint64_t size : {1024u, 4096u, 32768u, 262144u}) {
        FullyAssocLru lru(size, line);
        for (uint64_t a : trace)
            lru.access(a);
        EXPECT_EQ(prof.misses(size), lru.stats().misses)
            << "size " << size;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLines, StackDistEquivalence,
    ::testing::Values(std::make_pair(1ull, 32u),
                      std::make_pair(2ull, 32u),
                      std::make_pair(3ull, 64u),
                      std::make_pair(4ull, 128u),
                      std::make_pair(99ull, 16u)));

TEST(StackDist, SurvivesManyDistinctLines)
{
    // Force repeated tree growth/compaction: 200k distinct lines, then
    // re-touch an early one.
    StackDistProfiler p(32);
    for (uint64_t i = 0; i < 200000; ++i)
        p.access(i * 32);
    p.access(0);
    EXPECT_EQ(p.coldMisses(), 200000u);
    // The reuse distance of the final access is 200000.
    EXPECT_EQ(p.misses(200000ull * 32), 200000u);
    EXPECT_EQ(p.misses(199999ull * 32), 200001u);
}

// ---- Against a naive move-to-front stack ---------------------------

namespace {

/** Random walk over @p lines lines with jumps, as byte addresses
 *  anywhere inside their lines: most accesses miss the top of the
 *  stack, so the index takes nearly every one. */
std::vector<Addr>
wanderingStream(uint32_t seed, size_t n, uint64_t lines, unsigned line)
{
    Rng rng(seed);
    std::vector<Addr> a;
    a.reserve(n);
    uint64_t cur = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rng.below(4) == 0)
            cur = rng.below(lines);
        else
            cur = (cur + rng.below(64)) % lines;
        a.push_back(cur * line + rng.below(line));
    }
    return a;
}

/** The reference profile of @p a at @p line-byte lines. */
oracle::MtfStack
mtfProfile(const std::vector<Addr> &a, unsigned line)
{
    oracle::MtfStack ref;
    for (Addr addr : a)
        ref.touch(addr / line);
    return ref;
}

/** Histogram (every bucket), cold count and LRU order agree. */
void
expectMatchesMtf(const StackDistProfiler &p, const oracle::MtfStack &ref)
{
    const std::vector<uint64_t> &got = p.histogram();
    const std::vector<uint64_t> &want = ref.histogram();
    for (size_t d = 1; d < std::max(got.size(), want.size()); ++d)
        EXPECT_EQ(d < got.size() ? got[d] : 0, d < want.size() ? want[d] : 0)
            << "distance " << d;
    EXPECT_EQ(p.coldMisses(), ref.cold());
    EXPECT_EQ(p.stackOrder(), ref.lruFirst());
}

} // namespace

class StackDistNaive : public ::testing::TestWithParam<unsigned>
{};

TEST_P(StackDistNaive, MatchesMoveToFrontAcrossRenumbers)
{
    const unsigned line = GetParam();
    std::vector<Addr> a = wanderingStream(line, 120000, 1500, line);
    StackDistProfiler p(line);
    for (Addr addr : a)
        p.access(addr);
    EXPECT_GE(p.renumbers(), 10u);
    EXPECT_EQ(p.accesses(), a.size());
    expectMatchesMtf(p, mtfProfile(a, line));
}

INSTANTIATE_TEST_SUITE_P(LineSizes, StackDistNaive,
                         ::testing::Values(16u, 32u, 64u, 128u));

TEST(StackDistNaiveCases, FewerLinesThanTheTop)
{
    // Five distinct lines never fill the top: nothing is demoted, so
    // the index stays empty and every distance is <= 5.
    Rng rng(7);
    std::vector<Addr> a;
    for (int i = 0; i < 5000; ++i)
        a.push_back(rng.below(5) * 32 + rng.below(32));
    StackDistProfiler p(32);
    for (Addr addr : a)
        p.access(addr);
    EXPECT_EQ(p.renumbers(), 0u);
    EXPECT_EQ(p.coldMisses(), 5u);
    EXPECT_EQ(p.stackOrder().size(), 5u);
    expectMatchesMtf(p, mtfProfile(a, 32));
}

TEST(StackDistNaiveCases, BatchSplitsMatchSingleAccesses)
{
    // accessRange() over any split of the stream is one access() per
    // address: same histogram, cold count, LRU order and first-touch
    // log.
    std::vector<Addr> a = wanderingStream(11, 150000, 4000, 32);
    StackDistProfiler single(32);
    std::vector<uint64_t> singleLog;
    single.setFirstTouchLog(&singleLog);
    for (Addr addr : a)
        single.access(addr);
    ASSERT_GE(single.renumbers(), 10u);

    const size_t sizes[] = {1, 2, 7, 8, 9, 65536};
    Rng rng(13);
    for (size_t split = 0; split <= std::size(sizes); ++split) {
        StackDistProfiler batched(32);
        std::vector<uint64_t> log;
        batched.setFirstTouchLog(&log);
        for (size_t i = 0; i < a.size();) {
            // One fixed size per split, then one split of random sizes.
            size_t n = split < std::size(sizes)
                           ? sizes[split]
                           : sizes[rng.below(std::size(sizes))];
            n = std::min(n, a.size() - i);
            batched.accessRange(a.data() + i, n);
            i += n;
        }
        EXPECT_EQ(batched.accesses(), single.accesses()) << split;
        EXPECT_EQ(batched.coldMisses(), single.coldMisses()) << split;
        EXPECT_EQ(batched.histogram(), single.histogram()) << split;
        EXPECT_EQ(batched.stackOrder(), single.stackOrder()) << split;
        EXPECT_EQ(log, singleLog) << split;
    }
}

TEST(StackDistNaiveCases, OracleTouchAndPromoteMatchMoveToFront)
{
    // Random touches and promotions of present lines; each promotion
    // or touch is one push, so 60000 operations over about 1000 lines
    // renumber the index about 20 times.
    for (uint32_t seed : {3u, 4u}) {
        Rng rng(seed);
        LruStackOracle o;
        oracle::MtfStack ref;
        std::vector<uint64_t> seen;
        for (int i = 0; i < 60000; ++i) {
            if (!seen.empty() && rng.below(3) == 0) {
                uint64_t line = seen[rng.below(seen.size())];
                o.promote(line);
                ref.promote(line);
                continue;
            }
            uint64_t line = rng.below(1000) * 977;
            uint64_t want = ref.touch(line);
            ASSERT_EQ(o.touch(line), want) << "op " << i;
            if (!want)
                seen.push_back(line);
        }
        EXPECT_EQ(o.lines(), ref.lines());
    }
}
