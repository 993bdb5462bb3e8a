/** @file
 * Correctness of the single-pass multi-configuration collapses
 * against brute-force per-config CacheSim replays: a sweep pass must
 * be an optimization, never an approximation. Covers the Mattson
 * capacity collapse on synthetic random streams and on the
 * adversarial stack patterns for the profiler's top-of-stack fast
 * path, and the four real benchmark scenes end to end through
 * runFaSweep / runCacheSweep against the plain simulators of
 * tests/oracle.hh.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/stack_dist.hh"
#include "core/experiment.hh"
#include "core/scene_layout.hh"
#include "oracle.hh"

using namespace texcache;

namespace {

/** Texture-like synthetic stream: local walk with occasional jumps. */
std::vector<Addr>
syntheticStream(size_t n, uint32_t seed)
{
    std::vector<Addr> out;
    out.reserve(n);
    uint32_t x = seed;
    uint64_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
        x = x * 1664525u + 1013904223u;
        if ((x >> 24) < 8)
            cursor = (x >> 4) & 0xfffff;
        else
            cursor = (cursor + ((x >> 8) & 0xff)) & 0xfffff;
        out.push_back(cursor);
    }
    return out;
}

/** Brute-force reference: one full CacheSim replay of @p config. */
CacheStats
bruteForce(const std::vector<Addr> &stream, const CacheConfig &config)
{
    CacheSim sim(config);
    for (Addr a : stream)
        sim.access(a);
    return sim.stats();
}

/** Fully associative stats at every size in @p sizes from one
 *  stack-distance pass over @p stream (the Mattson collapse). */
std::vector<CacheStats>
collapsed(const std::vector<Addr> &stream, unsigned line,
          const std::vector<uint64_t> &sizes)
{
    StackDistProfiler prof(line);
    for (Addr a : stream)
        prof.access(a);
    std::vector<CacheStats> out;
    for (uint64_t size : sizes) {
        CacheStats s;
        s.accesses = prof.accesses();
        s.misses = prof.misses(size);
        s.coldMisses = prof.coldMisses();
        out.push_back(s);
    }
    return out;
}

void
expectSame(const CacheStats &got, const CacheStats &want,
           const std::string &what)
{
    EXPECT_EQ(got.accesses, want.accesses) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.coldMisses, want.coldMisses) << what;
}

/** expectSame plus the eviction count, which every runner reports
 *  as CacheSim counts it. */
void
expectIdentical(const CacheStats &got, const CacheStats &want,
                const std::string &what)
{
    expectSame(got, want, what);
    EXPECT_EQ(got.evictions, want.evictions) << what;
}

const std::vector<uint64_t> kSizes = {2 << 10, 8 << 10, 32 << 10,
                                      128 << 10};
const unsigned kLines[] = {32, 128};

} // namespace

TEST(CapacityCollapse, MatchesBruteForceOnRandomStream)
{
    std::vector<Addr> stream = syntheticStream(200000, 7);
    for (unsigned line : kLines) {
        std::vector<CacheStats> got = collapsed(stream, line, kSizes);
        ASSERT_EQ(got.size(), kSizes.size());
        for (size_t i = 0; i < kSizes.size(); ++i) {
            CacheStats want = bruteForce(
                stream, {kSizes[i], line, CacheConfig::kFullyAssoc});
            expectSame(got[i], want,
                       "line=" + std::to_string(line) +
                           " size=" + std::to_string(kSizes[i]));
        }
    }
}

TEST(CapacityCollapse, HandlesUnsortedSizesAndTinyCaches)
{
    std::vector<Addr> stream = syntheticStream(50000, 99);
    std::vector<uint64_t> sizes = {64 << 10, 1 << 10, 4 << 10, 256};
    std::vector<CacheStats> got = collapsed(stream, 64, sizes);
    for (size_t i = 0; i < sizes.size(); ++i) {
        CacheStats want =
            bruteForce(stream, {sizes[i], 64, CacheConfig::kFullyAssoc});
        expectSame(got[i], want, "size=" + std::to_string(sizes[i]));
    }
}

// Adversarial patterns for the profiler's top-of-stack fast path: tight
// cycles that live entirely inside the array, cycles one longer than
// it, and interleavings that repeatedly promote deep lines across the
// array boundary.
TEST(CapacityCollapse, StackFastPathBoundaryPatterns)
{
    std::vector<std::vector<Addr>> streams;
    for (size_t cycle : {2u, 4u, 8u, 9u, 16u}) {
        std::vector<Addr> s;
        for (int rep = 0; rep < 200; ++rep)
            for (size_t i = 0; i < cycle; ++i)
                s.push_back(i * 64);
        streams.push_back(std::move(s));
    }
    {
        // Sawtooth: 0..n..0 touches every depth from 1 to n.
        std::vector<Addr> s;
        for (int rep = 0; rep < 50; ++rep) {
            for (int i = 0; i < 24; ++i)
                s.push_back(static_cast<Addr>(i) * 64);
            for (int i = 23; i >= 0; --i)
                s.push_back(static_cast<Addr>(i) * 64);
        }
        streams.push_back(std::move(s));
    }
    std::vector<uint64_t> sizes = {256, 512, 1024, 4096};
    for (size_t k = 0; k < streams.size(); ++k) {
        std::vector<CacheStats> got = collapsed(streams[k], 64, sizes);
        for (size_t i = 0; i < sizes.size(); ++i) {
            CacheStats want = bruteForce(
                streams[k], {sizes[i], 64, CacheConfig::kFullyAssoc});
            expectSame(got[i], want,
                       "stream=" + std::to_string(k) +
                           " size=" + std::to_string(sizes[i]));
        }
    }
}

// The end-to-end contract on the real workloads: for every benchmark
// scene, the collapsed sweep reproduces per-config CacheSim replays
// exactly - at three capacities and two line sizes, through the real
// trace -> layout mapping.
TEST(RunFaSweep, MatchesPlainReplaysOnAllFourScenes)
{
    TraceStore store;
    std::vector<uint64_t> sizes = {4 << 10, 16 << 10, 64 << 10};
    for (BenchScene s : allBenchScenes()) {
        RasterOrder order;
        order.dir = paperScanDirection(s);
        const TexelTrace &trace = store.trace(s, order);
        LayoutParams params;
        params.kind = LayoutKind::Nonblocked;
        SceneLayout layout(store.scene(s), params);
        for (unsigned line : {32u, 64u}) {
            std::vector<CacheStats> got =
                runFaSweep(trace, layout, line, sizes);
            ASSERT_EQ(got.size(), sizes.size());
            for (size_t i = 0; i < sizes.size(); ++i) {
                CacheStats want = oracle::run(
                    trace, layout,
                    {sizes[i], line, CacheConfig::kFullyAssoc});
                expectIdentical(got[i], want,
                           std::string(benchSceneName(s)) + " line=" +
                               std::to_string(line) +
                               " size=" + std::to_string(sizes[i]));
            }
        }
    }
}

// runCacheSweep routes a mixed FA + set-associative config list
// through the fewest passes; the result must align with the input
// order and match plain per-config replays bit for bit.
TEST(RunCacheSweep, MixedConfigListMatchesPlainReplays)
{
    TraceStore store;
    RasterOrder order;
    order.dir = paperScanDirection(BenchScene::Goblet);
    const TexelTrace &trace = store.trace(BenchScene::Goblet, order);
    LayoutParams params;
    params.kind = LayoutKind::Blocked;
    params.blockW = 4;
    params.blockH = 4;
    SceneLayout layout(store.scene(BenchScene::Goblet), params);

    std::vector<CacheConfig> configs = {
        {8 << 10, 64, CacheConfig::kFullyAssoc},
        {8 << 10, 64, 2},
        {32 << 10, 64, CacheConfig::kFullyAssoc},
        {8 << 10, 64, 1},
        {8 << 10, 32, CacheConfig::kFullyAssoc},
        {32 << 10, 64, 4},
    };
    std::vector<CacheStats> got = runCacheSweep(trace, layout, configs);
    ASSERT_EQ(got.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        expectIdentical(got[i], oracle::run(trace, layout, configs[i]),
                        configs[i].str());
}
