/**
 * @file
 * Parallel sweep execution over independent simulation points.
 *
 * The figure sweeps that cannot be collapsed into one pass
 * (cache/multi_sim.hh) are embarrassingly parallel: every point owns
 * its simulator state and only reads the shared trace. Sweep::run
 * executes a point list on a work-stealing thread pool - each worker
 * starts with an even slice of the index range and steals the back
 * half of a victim's remaining slice when its own runs dry, which
 * keeps long-running points (big scenes, big caches) from serializing
 * the tail.
 *
 * Results are stored by point index, so their order is deterministic
 * and identical to serial execution regardless of thread count or
 * scheduling; tests/test_sweep.cc asserts bit-identical output.
 * Per-point wall-clock is captured for the perf harness.
 *
 * Thread count: TEXCACHE_THREADS overrides, else hardware concurrency;
 * zero, negative, non-numeric or out-of-range values (above
 * Sweep::kMaxThreads) are a fatal() configuration error. With one
 * thread (or one point) the pool is bypassed entirely.
 *
 * Observability: every top-level run records a SweepRunStats (steal
 * count, thread utilization, wall-clock) retrievable via
 * Sweep::lastRunStats() until the next run; benches export it into
 * their stats tree (bench/bench_util.hh). Setting TEXCACHE_PROGRESS=1
 * makes long runs inform() completed/total points and an ETA every
 * few seconds; it is off by default so bench stderr stays quiet.
 */

#ifndef TEXCACHE_CORE_SWEEP_HH
#define TEXCACHE_CORE_SWEEP_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace texcache {

/** One sweep point's value plus its measured wall-clock. */
template <typename T>
struct SweepResult
{
    T value{};
    double millis = 0.0;
};

/** Aggregate behavior of one Sweep::run (the perf-harness view). */
struct SweepRunStats
{
    uint64_t points = 0;
    unsigned threads = 0;
    uint64_t steals = 0;     ///< successful steal operations
    double wallMillis = 0.0; ///< whole-run wall-clock
    double busyMillis = 0.0; ///< point execution time summed over workers

    /** Fraction of thread-time spent executing points (0..1). */
    double
    utilization() const
    {
        return threads && wallMillis > 0.0
                   ? busyMillis / (threads * wallMillis)
                   : 0.0;
    }
};

class Sweep
{
  public:
    /** Largest TEXCACHE_THREADS accepted: a run starts up to one
     *  thread per point, so the ceiling bounds what one run spawns. */
    static constexpr unsigned kMaxThreads = 1024;

    /** Threads the next run will use (TEXCACHE_THREADS or hardware). */
    static unsigned threadCount();

    /**
     * Behavior of the most recent *top-level* run (nested runs - a
     * point that itself sweeps - fold into their enclosing run's
     * busy time and do not overwrite this). Read it right after the
     * run(...) call whose behavior you want.
     */
    static SweepRunStats lastRunStats();

    /**
     * Evaluate @p fn over every point, in parallel, returning results
     * in point order. @p fn must be safe to call concurrently from
     * several threads (give each point its own simulator state; shared
     * inputs must be read-only) and its return type default-
     * constructible.
     */
    template <typename Point, typename Fn>
    static auto
    run(const std::vector<Point> &points, Fn fn)
        -> std::vector<SweepResult<decltype(fn(points[0]))>>
    {
        using R = decltype(fn(points[0]));
        std::vector<SweepResult<R>> results(points.size());
        runIndexed(points.size(), [&](size_t i) {
            auto t0 = std::chrono::steady_clock::now();
            results[i].value = fn(points[i]);
            results[i].millis =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        });
        return results;
    }

  private:
    /** Run work(0..n-1) on the pool; blocks until all complete. */
    static void runIndexed(size_t n,
                           const std::function<void(size_t)> &work);
};

} // namespace texcache

#endif // TEXCACHE_CORE_SWEEP_HH
