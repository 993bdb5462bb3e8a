/**
 * @file
 * Parallel sweep execution over independent simulation points.
 *
 * The figure sweeps that cannot be collapsed into one pass are
 * embarrassingly parallel: every point owns its simulator state and
 * only reads the shared trace. Sweep::run executes a point list on
 * one process-wide pool. Its workers start once, on first need, and
 * park on a condition variable when idle. A run's points are claimed
 * off one shared counter, lowest index first, by its caller and by
 * the pool workers it admits, in blocks of adjacent points that
 * shrink with what is left: a thread first walks a band of points (a
 * render's neighbouring tiles), and the last points go one at a time,
 * so a long-running point holds up few others. The caller runs its
 * own points and, once they are all claimed, helps the runs nested
 * under its points until its run is done. A point may itself call
 * Sweep::run (the sharded replay engine does): the nested run's
 * points go to the same workers, so no more than threadCount()
 * threads ever run points, however deep the nesting.
 *
 * Results are stored by point index, so their order is deterministic
 * and identical to serial execution regardless of thread count or
 * scheduling; tests/test_sweep.cc asserts bit-identical output.
 * Per-point wall-clock is captured for the perf harness.
 *
 * Thread count: TEXCACHE_THREADS overrides, else hardware concurrency,
 * read at every run; zero, negative, non-numeric or out-of-range
 * values (above Sweep::kMaxThreads) are a fatal() configuration error.
 * With one thread (or one point) the run is inline on its caller and
 * starts no thread. The pool joins its workers at exit.
 *
 * Observability: every top-level run records a SweepRunStats (points
 * other threads ran, thread utilization, wall-clock) retrievable via
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
    uint64_t steals = 0;     ///< points run by threads other than the caller
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
    /** Largest TEXCACHE_THREADS accepted: the pool keeps up to
     *  threadCount() - 1 workers, so the ceiling bounds its size. */
    static constexpr unsigned kMaxThreads = 1024;

    /** Threads the next run will use (TEXCACHE_THREADS or hardware). */
    static unsigned threadCount();

    /**
     * Behavior of the most recent *top-level* run (nested runs - a
     * point that itself sweeps - fold into their enclosing point's
     * wall-clock and do not overwrite this). Read it right after the
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
