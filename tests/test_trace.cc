/** @file Tests for texel traces, fragment grouping and trace stats. */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "trace/fragment_iter.hh"
#include "trace/texel_trace.hh"
#include "trace/trace_stats.hh"

using namespace texcache;

TEST(TexelRecord, PackRoundTrips)
{
    for (uint16_t tex : {0, 1, 511, 2047}) {
        for (uint16_t lvl : {0, 1, 10, 31}) {
            TexelRecord r{tex, lvl, 12345, 54321 & 0xffff,
                          TouchKind::TrilinearUpper};
            TexelRecord q = TexelRecord::unpack(r.pack());
            EXPECT_EQ(q.texture, r.texture);
            EXPECT_EQ(q.level, r.level);
            EXPECT_EQ(q.u, r.u);
            EXPECT_EQ(q.v, r.v);
            EXPECT_EQ(q.kind, r.kind);
        }
    }
}

TEST(TexelRecord, FieldLimitsPanic)
{
    TexelRecord r{2048, 0, 0, 0, TouchKind::Bilinear};
    EXPECT_DEATH(r.pack(), "11-bit");
    TexelRecord r2{0, 32, 0, 0, TouchKind::Bilinear};
    EXPECT_DEATH(r2.pack(), "5-bit");
}

namespace {

SampleResult
fakeTrilinear(uint16_t lower_level)
{
    SampleResult s;
    s.kind = FilterKind::Trilinear;
    s.numTouches = 8;
    for (unsigned i = 0; i < 4; ++i)
        s.touches[i] = {lower_level, static_cast<uint16_t>(i), 0};
    for (unsigned i = 4; i < 8; ++i)
        s.touches[i] = {static_cast<uint16_t>(lower_level + 1),
                        static_cast<uint16_t>(i - 4), 0};
    return s;
}

SampleResult
fakeBilinear()
{
    SampleResult s;
    s.kind = FilterKind::Bilinear;
    s.numTouches = 4;
    for (unsigned i = 0; i < 4; ++i)
        s.touches[i] = {0, static_cast<uint16_t>(i), 1};
    return s;
}

} // namespace

TEST(TexelTrace, AppendSampleTagsKinds)
{
    TexelTrace t;
    t.appendSample(3, fakeTrilinear(2));
    t.appendSample(3, fakeBilinear());
    ASSERT_EQ(t.size(), 12u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(t[i].kind, TouchKind::TrilinearLower);
    for (int i = 4; i < 8; ++i)
        EXPECT_EQ(t[i].kind, TouchKind::TrilinearUpper);
    for (int i = 8; i < 12; ++i)
        EXPECT_EQ(t[i].kind, TouchKind::Bilinear);
    EXPECT_EQ(t[0].texture, 3);
}

TEST(FragmentIter, RegroupsMixedFragments)
{
    TexelTrace t;
    t.appendSample(0, fakeTrilinear(0));
    t.appendSample(1, fakeBilinear());
    t.appendSample(2, fakeTrilinear(1));

    std::vector<unsigned> counts;
    std::vector<uint16_t> textures;
    forEachFragment(t, [&](const FragmentTouches &f) {
        counts.push_back(f.count);
        textures.push_back(f.recs[0].texture);
    });
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 8u);
    EXPECT_EQ(counts[1], 4u);
    EXPECT_EQ(counts[2], 8u);
    EXPECT_EQ(textures[0], 0);
    EXPECT_EQ(textures[1], 1);
    EXPECT_EQ(textures[2], 2);
    FragmentTouches eight;
    eight.count = 8;
    EXPECT_TRUE(eight.trilinear());
}

TEST(TraceStats, AccessesPerTexelByRole)
{
    TexelTrace t;
    // The same trilinear footprint four times: 4 unique lower texels
    // accessed 16 times, 4 unique upper texels accessed 16 times.
    for (int i = 0; i < 4; ++i)
        t.appendSample(0, fakeTrilinear(0));
    TraceStats s = analyzeTrace(t);
    EXPECT_EQ(s.trilinearLower.accesses, 16u);
    EXPECT_EQ(s.trilinearLower.uniqueTexels, 4u);
    EXPECT_DOUBLE_EQ(s.trilinearLower.accessesPerTexel(), 4.0);
    EXPECT_EQ(s.trilinearUpper.uniqueTexels, 4u);
    EXPECT_EQ(s.bilinear.accesses, 0u);
}

TEST(TraceStats, RunlengthCountsTextureSwitches)
{
    TexelTrace t;
    t.appendSample(0, fakeTrilinear(0)); // 8 accesses, run 1
    t.appendSample(0, fakeTrilinear(0)); // same run
    t.appendSample(1, fakeBilinear());   // run 2 (4 accesses)
    t.appendSample(0, fakeTrilinear(0)); // run 3
    TraceStats s = analyzeTrace(t);
    EXPECT_EQ(s.accesses, 28u);
    EXPECT_EQ(s.textureRuns, 3u);
    EXPECT_NEAR(s.averageRunlength(), 28.0 / 3.0, 1e-9);
}

TEST(TraceStats, RolesAreTrackedIndependently)
{
    TexelTrace t;
    // The same texel (0,0,0) via bilinear and trilinear-lower counts
    // as unique in each role.
    t.appendSample(0, fakeBilinear());
    t.appendSample(0, fakeTrilinear(0));
    TraceStats s = analyzeTrace(t);
    EXPECT_EQ(s.bilinear.uniqueTexels, 4u);
    EXPECT_EQ(s.trilinearLower.uniqueTexels, 4u);
}

TEST(Repetition, CountsWrappedReuse)
{
    RepetitionCounter c;
    // Three distinct unwrapped anchors that wrap onto one texel.
    c.record(0, 0, 5, 5, 5, 5);
    c.record(0, 0, 5 + 64, 5, 5, 5);
    c.record(0, 0, 5 + 128, 5, 5, 5);
    EXPECT_EQ(c.uniqueUnwrapped(), 3u);
    EXPECT_EQ(c.uniqueWrapped(), 1u);
    EXPECT_DOUBLE_EQ(c.repetitionFactor(), 3.0);
}

TEST(Repetition, NoRepeatGivesFactorOne)
{
    RepetitionCounter c;
    for (int i = 0; i < 10; ++i)
        c.record(0, 0, i, 0, static_cast<uint16_t>(i), 0);
    EXPECT_DOUBLE_EQ(c.repetitionFactor(), 1.0);
}

TEST(Repetition, NegativeUnwrappedCoordsAreDistinct)
{
    RepetitionCounter c;
    c.record(0, 0, -1, 0, 63, 0);
    c.record(0, 0, 63, 0, 63, 0);
    EXPECT_EQ(c.uniqueUnwrapped(), 2u);
    EXPECT_EQ(c.uniqueWrapped(), 1u);
}

TEST(FlatKeySet, MatchesSetOracle)
{
    // Random keys drawn with repeats, key 0, and a run of distinct
    // keys that differ only in their top bits (where a repetition key
    // keeps its texture and level), which the slot hash must spread.
    std::mt19937_64 rng(15);
    std::vector<uint64_t> pool(30000);
    for (uint64_t &k : pool)
        k = rng();
    std::vector<uint64_t> keys;
    for (int i = 0; i < 120000; ++i)
        keys.push_back(i % 40000 ? pool[rng() % pool.size()] : 0);
    for (uint64_t k = 1; keys.size() < 140000; ++k)
        keys.push_back(k << 40);

    FlatKeySet set;
    std::set<uint64_t> oracle;
    size_t wrong = 0;
    for (uint64_t k : keys)
        wrong += set.insert(k) != oracle.insert(k).second;
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(oracle.count(0), 1u);
    EXPECT_EQ(set.size(), oracle.size());
}
