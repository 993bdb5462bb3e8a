/** @file
 * The sweep runner's contract (core/sweep.hh): parallel execution
 * returns results bit-identical to serial execution and in identical
 * (point) order, regardless of thread count, load skew, or which
 * worker stole what; exceptions propagate; per-point wall-clock is
 * captured.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_sim.hh"
#include "core/sweep.hh"
#include "thread_env.hh"

using namespace texcache;

namespace {

/** Deterministic per-point work with a heavily skewed cost. */
uint64_t
skewedWork(size_t i)
{
    // Point cost varies by ~3 orders of magnitude so slices are
    // unbalanced and stealing must happen for the pool to finish
    // anywhere near evenly.
    uint64_t iters = 100 + (i * 2654435761u) % 100000;
    uint64_t h = 1469598103934665603ull ^ i;
    for (uint64_t k = 0; k < iters; ++k) {
        h ^= k;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(Sweep, ThreadCountHonorsEnvOverride)
{
    {
        ThreadEnv env("3");
        EXPECT_EQ(Sweep::threadCount(), 3u);
    }
    {
        ThreadEnv env("1");
        EXPECT_EQ(Sweep::threadCount(), 1u);
    }
    {
        ThreadEnv env("1024");
        EXPECT_EQ(Sweep::threadCount(), Sweep::kMaxThreads);
    }
    {
        ThreadEnv env(nullptr);
        EXPECT_GE(Sweep::threadCount(), 1u);
    }
}

TEST(SweepDeathTest, RejectsInvalidThreadCounts)
{
    // TEXCACHE_THREADS is user configuration: zero, negative,
    // non-numeric or out-of-range values (above Sweep::kMaxThreads, or
    // beyond what strtol can hold) are a fatal() error, never a silent
    // fallback, wrap or saturation.
    for (const char *bad : {"0", "-2", "abc", "", "3x", "1025",
                            "4294967297", "99999999999999999999",
                            "-99999999999999999999"}) {
        ThreadEnv env(bad);
        EXPECT_EXIT(Sweep::threadCount(),
                    testing::ExitedWithCode(1), "TEXCACHE_THREADS")
            << "value '" << bad << "'";
    }
}

TEST(Sweep, RecordsRunStats)
{
    ThreadEnv env("2");
    std::vector<size_t> points(64);
    std::iota(points.begin(), points.end(), 0);
    Sweep::run(points, skewedWork);
    SweepRunStats s = Sweep::lastRunStats();
    EXPECT_EQ(s.points, 64u);
    EXPECT_EQ(s.threads, 2u);
    EXPECT_GT(s.wallMillis, 0.0);
    EXPECT_GT(s.busyMillis, 0.0);
    EXPECT_GT(s.utilization(), 0.0);
    EXPECT_LE(s.utilization(), 1.0);
}

TEST(Sweep, ParallelBitIdenticalAndIdenticallyOrderedToSerial)
{
    std::vector<size_t> points(512);
    std::iota(points.begin(), points.end(), 0);

    std::vector<uint64_t> serial;
    {
        ThreadEnv env("1");
        for (const auto &r : Sweep::run(points, skewedWork))
            serial.push_back(r.value);
    }
    for (const char *threads : {"2", "4", "8"}) {
        ThreadEnv env(threads);
        auto par = Sweep::run(points, skewedWork);
        ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
        for (size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(par[i].value, serial[i])
                << threads << " threads, point " << i;
    }
}

TEST(Sweep, SimulatorPointsMatchSerial)
{
    // The intended use: each point owns a CacheSim over a shared
    // read-only stream; parallel stats must equal serial stats.
    std::vector<Addr> stream;
    uint32_t x = 5;
    for (int i = 0; i < 50000; ++i) {
        x = x * 1664525u + 1013904223u;
        stream.push_back((x >> 6) & 0xffff8);
    }
    std::vector<CacheConfig> points;
    for (uint64_t size : {4 << 10, 16 << 10, 64 << 10})
        for (unsigned assoc : {1u, 2u, CacheConfig::kFullyAssoc})
            points.push_back({size, 64, assoc});

    auto runOne = [&](const CacheConfig &cfg) {
        CacheSim sim(cfg);
        for (Addr a : stream)
            sim.access(a);
        return sim.stats().misses;
    };

    std::vector<uint64_t> serial;
    {
        ThreadEnv env("1");
        for (const auto &r : Sweep::run(points, runOne))
            serial.push_back(r.value);
    }
    ThreadEnv env("4");
    auto par = Sweep::run(points, runOne);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(par[i].value, serial[i]) << points[i].str();
}

TEST(Sweep, EmptyAndSinglePointLists)
{
    ThreadEnv env("4");
    std::vector<int> none;
    EXPECT_TRUE(Sweep::run(none, [](int v) { return v; }).empty());

    std::vector<int> one = {41};
    auto r = Sweep::run(one, [](int v) { return v + 1; });
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].value, 42);
}

TEST(Sweep, MorePointsThanASliceEach)
{
    // More threads than points: the pool must clamp, not deadlock.
    ThreadEnv env("16");
    std::vector<int> points = {1, 2, 3};
    auto r = Sweep::run(points, [](int v) { return v * v; });
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].value, 1);
    EXPECT_EQ(r[1].value, 4);
    EXPECT_EQ(r[2].value, 9);
}

TEST(Sweep, CapturesPerPointWallClock)
{
    ThreadEnv env("2");
    std::vector<int> points = {3, 12};
    auto r = Sweep::run(points, [](int ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        return ms;
    });
    ASSERT_EQ(r.size(), 2u);
    EXPECT_GE(r[0].millis, 2.0);
    EXPECT_GE(r[1].millis, 10.0);
}

TEST(Sweep, PropagatesExceptions)
{
    ThreadEnv env("4");
    std::vector<size_t> points(64);
    std::iota(points.begin(), points.end(), 0);
    EXPECT_THROW(Sweep::run(points,
                            [](size_t i) -> int {
                                if (i == 37)
                                    throw std::runtime_error("point 37");
                                return static_cast<int>(i);
                            }),
                 std::runtime_error);
}
