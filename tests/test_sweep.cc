/** @file
 * The sweep runner's contract (core/sweep.hh): parallel execution
 * returns results bit-identical to serial execution and in identical
 * (point) order, regardless of thread count, load skew, nesting, or
 * which worker ran what; exceptions propagate; per-point wall-clock is
 * captured; the pool never runs points on more than threadCount()
 * threads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
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

/** A point whose value folds in a nested sweep @p depth levels deep;
 *  every point at every level notes its thread in @p seen. */
uint64_t
nestedWork(size_t i, unsigned depth, std::set<std::thread::id> *seen,
           std::mutex *mu)
{
    if (seen) {
        std::lock_guard<std::mutex> g(*mu);
        seen->insert(std::this_thread::get_id());
    }
    uint64_t h = skewedWork(i);
    if (!depth)
        return h;
    std::vector<size_t> inner(5 + i % 4);
    std::iota(inner.begin(), inner.end(), i * 16);
    for (const auto &r : Sweep::run(inner, [&](size_t k) {
             return nestedWork(k, depth - 1, seen, mu);
         }))
        h = h * 1099511628211ull ^ r.value;
    return h;
}

/** Threads of this process, from /proc/self/task. */
size_t
processThreads()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
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

TEST(Sweep, NestedRunsThreeDeepMatchSerialInOrder)
{
    std::vector<size_t> points(12);
    std::iota(points.begin(), points.end(), 0);
    auto nested = [](size_t i) { return nestedWork(i, 2, nullptr, nullptr); };
    std::vector<uint64_t> serial;
    {
        ThreadEnv env("1");
        for (const auto &r : Sweep::run(points, nested))
            serial.push_back(r.value);
    }
    for (const char *threads : {"4", "8"}) {
        ThreadEnv env(threads);
        auto par = Sweep::run(points, nested);
        ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(par[i].value, serial[i])
                << threads << " threads, point " << i;
    }
}

TEST(Sweep, PointsRunOnAtMostThreadCountThreads)
{
    // Nested runs hand their points to the same workers: however
    // deep the nesting and however many runs, no more than
    // threadCount() distinct threads ever run a point.
    for (const char *threads : {"4", "2"}) {
        ThreadEnv env(threads);
        std::set<std::thread::id> seen;
        std::mutex mu;
        std::vector<size_t> points(8);
        std::iota(points.begin(), points.end(), 0);
        for (int rep = 0; rep < 3; ++rep)
            Sweep::run(points,
                       [&](size_t i) { return nestedWork(i, 2, &seen, &mu); });
        EXPECT_LE(seen.size(), Sweep::threadCount()) << threads;
        EXPECT_GE(seen.size(), 1u);
    }
}

TEST(Sweep, NestedExceptionReachesTopLevelCaller)
{
    ThreadEnv env("4");
    std::vector<size_t> points(16);
    std::iota(points.begin(), points.end(), 0);
    auto throwing = [](size_t i) -> uint64_t {
        std::vector<size_t> inner(8);
        std::iota(inner.begin(), inner.end(), 0);
        uint64_t h = 0;
        for (const auto &r : Sweep::run(inner, [&](size_t k) -> uint64_t {
                 if (i == 5 && k == 3)
                     throw std::runtime_error("nested point");
                 return skewedWork(k);
             }))
            h ^= r.value;
        return h;
    };
    EXPECT_THROW(Sweep::run(points, throwing), std::runtime_error);

    // The pool is intact: the next (nested) run completes in full.
    auto again = Sweep::run(points, [](size_t i) {
        return nestedWork(i, 1, nullptr, nullptr);
    });
    ASSERT_EQ(again.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(again[i].value, nestedWork(i, 1, nullptr, nullptr));
}

TEST(Sweep, RunStatsAfterNestedRunsDescribeTheTopLevelRun)
{
    ThreadEnv env("4");
    std::vector<size_t> points(6);
    std::iota(points.begin(), points.end(), 0);
    Sweep::run(points,
               [](size_t i) { return nestedWork(i, 2, nullptr, nullptr); });
    SweepRunStats s = Sweep::lastRunStats();
    EXPECT_EQ(s.points, 6u);
    EXPECT_EQ(s.threads, 4u);
    EXPECT_GT(s.utilization(), 0.0);
    EXPECT_LE(s.utilization(), 1.0);
}

TEST(Sweep, SingleThreadRunStartsNoThread)
{
    ThreadEnv env("1");
    size_t before = processThreads();
    std::vector<size_t> points(64);
    std::iota(points.begin(), points.end(), 0);
    std::set<std::thread::id> seen;
    std::mutex mu;
    Sweep::run(points,
               [&](size_t i) { return nestedWork(i, 1, &seen, &mu); });
    EXPECT_EQ(processThreads(), before);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}
