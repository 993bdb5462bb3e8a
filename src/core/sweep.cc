#include "core/sweep.hh"

#include <atomic>
#include <chrono>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "tracing/tracing.hh"

namespace texcache {

namespace {

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** TEXCACHE_PROGRESS enables the sweep heartbeat ("0" disables). */
bool
progressEnabled()
{
    const char *env = std::getenv("TEXCACHE_PROGRESS");
    return env && *env && std::string_view(env) != "0";
}

/** Heartbeat line: completed/total plus an ETA from the rate so far. */
void
informProgress(uint64_t completed, uint64_t total, double elapsed_ms)
{
    double eta_s = completed
                       ? elapsed_ms / 1e3 *
                             static_cast<double>(total - completed) /
                             static_cast<double>(completed)
                       : 0.0;
    inform("sweep progress: ", completed, "/", total, " points, ETA ",
           static_cast<uint64_t>(eta_s + 0.5), "s");
}

/** Nesting depth of runIndexed across all threads; only the run that
 *  entered at depth 0 publishes SweepRunStats. */
std::atomic<int> activeRuns{0};
std::mutex lastStatsMutex;
SweepRunStats lastStats;

/**
 * A worker's remaining index range, packed (begin << 32 | end) into
 * one atomic word so the owner's pop and a thief's steal are both
 * single CAS operations.
 */
class StealRange
{
  public:
    void
    set(uint32_t begin, uint32_t end)
    {
        r_.store(pack(begin, end), std::memory_order_release);
    }

    /** Owner side: take the front index. */
    bool
    pop(uint32_t &idx)
    {
        uint64_t cur = r_.load(std::memory_order_acquire);
        for (;;) {
            uint32_t b = begin(cur), e = end(cur);
            if (b >= e)
                return false;
            if (r_.compare_exchange_weak(cur, pack(b + 1, e),
                                         std::memory_order_acq_rel)) {
                idx = b;
                return true;
            }
        }
    }

    /** Thief side: take the back half of the remaining range. */
    bool
    stealHalf(uint32_t &sb, uint32_t &se)
    {
        uint64_t cur = r_.load(std::memory_order_acquire);
        for (;;) {
            uint32_t b = begin(cur), e = end(cur);
            if (b >= e)
                return false;
            uint32_t mid = b + (e - b + 1) / 2;
            if (r_.compare_exchange_weak(cur, pack(b, mid),
                                         std::memory_order_acq_rel)) {
                sb = mid;
                se = e;
                return true;
            }
        }
    }

  private:
    static uint64_t
    pack(uint32_t b, uint32_t e)
    {
        return (static_cast<uint64_t>(b) << 32) | e;
    }
    static uint32_t begin(uint64_t r) { return static_cast<uint32_t>(r >> 32); }
    static uint32_t end(uint64_t r) { return static_cast<uint32_t>(r); }

    std::atomic<uint64_t> r_{0};
};

} // namespace

unsigned
Sweep::threadCount()
{
    if (const char *env = std::getenv("TEXCACHE_THREADS")) {
        char *end = nullptr;
        errno = 0;
        long v = std::strtol(env, &end, 10);
        fatal_if(end == env || *end != '\0',
                 "TEXCACHE_THREADS='", env, "' is not a number");
        fatal_if(v < 1, "TEXCACHE_THREADS must be >= 1, got '", env,
                 "'");
        fatal_if(errno == ERANGE || v > static_cast<long>(kMaxThreads),
                 "TEXCACHE_THREADS must be <= ", kMaxThreads, ", got '",
                 env, "'");
        return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepRunStats
Sweep::lastRunStats()
{
    std::lock_guard<std::mutex> g(lastStatsMutex);
    return lastStats;
}

void
Sweep::runIndexed(size_t n, const std::function<void(size_t)> &work)
{
    panic_if(n > ~0u, "sweep of ", n, " points exceeds 32-bit indices");
    static const uint16_t kRunSpan = tracing::nameId("sweep.run");
    static const uint16_t kPointSpan = tracing::nameId("sweep.point");
    tracing::ScopedSpan run_span(kRunSpan, n);
    unsigned threads = threadCount();
    if (threads > n)
        threads = static_cast<unsigned>(n);

    bool top = activeRuns.fetch_add(1, std::memory_order_acq_rel) == 0;
    struct ActiveGuard
    {
        ~ActiveGuard()
        {
            activeRuns.fetch_sub(1, std::memory_order_acq_rel);
        }
    } active_guard;
    auto run_start = Clock::now();
    bool progress = progressEnabled();
    constexpr auto kHeartbeat = std::chrono::seconds(2);

    auto publish = [&](uint64_t steals, double busy_ms) {
        if (!top)
            return;
        std::lock_guard<std::mutex> g(lastStatsMutex);
        lastStats.points = n;
        lastStats.threads = threads ? threads : 1;
        lastStats.steals = steals;
        lastStats.wallMillis = millisSince(run_start);
        lastStats.busyMillis = busy_ms;
    };

    if (threads <= 1) {
        auto next_beat = run_start + kHeartbeat;
        for (size_t i = 0; i < n; ++i) {
            {
                tracing::ScopedSpan point_span(kPointSpan, i);
                work(i);
            }
            if (progress && Clock::now() >= next_beat) {
                informProgress(i + 1, n, millisSince(run_start));
                next_beat = Clock::now() + kHeartbeat;
            }
        }
        // Serial execution is points back to back: busy == wall.
        publish(0, millisSince(run_start));
        return;
    }

    std::vector<StealRange> queues(threads);
    for (unsigned t = 0; t < threads; ++t)
        queues[t].set(static_cast<uint32_t>(n * t / threads),
                      static_cast<uint32_t>(n * (t + 1) / threads));

    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    std::vector<double> busy(threads, 0.0);

    auto worker = [&](unsigned self) {
        StealRange &own = queues[self];
        for (;;) {
            uint32_t i;
            if (own.pop(i)) {
                auto t0 = Clock::now();
                try {
                    tracing::ScopedSpan point_span(kPointSpan, i);
                    work(i);
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> g(error_mu);
                        if (!error)
                            error = std::current_exception();
                    }
                    failed.store(true);
                }
                busy[self] += millisSince(t0);
                done.fetch_add(1, std::memory_order_acq_rel);
                continue;
            }
            if (failed.load())
                return;
            bool got = false;
            for (unsigned k = 1; k < threads && !got; ++k) {
                uint32_t b, e;
                if (queues[(self + k) % threads].stealHalf(b, e)) {
                    own.set(b, e);
                    steals.fetch_add(1, std::memory_order_relaxed);
                    got = true;
                }
            }
            if (!got) {
                if (done.load(std::memory_order_acquire) >= n)
                    return;
                std::this_thread::yield();
            }
        }
    };

    // Opt-in heartbeat: a monitor thread wakes every heartbeat period
    // and reports progress; a condition variable lets the run end it
    // promptly once all points are done.
    std::mutex beat_mu;
    std::condition_variable beat_cv;
    bool finished = false;
    std::thread monitor;
    if (progress) {
        monitor = std::thread([&] {
            std::unique_lock<std::mutex> lk(beat_mu);
            for (;;) {
                if (beat_cv.wait_for(lk, kHeartbeat,
                                     [&] { return finished; }))
                    return;
                uint64_t d = done.load(std::memory_order_acquire);
                if (d < n)
                    informProgress(d, n, millisSince(run_start));
            }
        });
    }

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker, t);
    worker(0);
    for (std::thread &th : pool)
        th.join();

    if (monitor.joinable()) {
        {
            std::lock_guard<std::mutex> g(beat_mu);
            finished = true;
        }
        beat_cv.notify_all();
        monitor.join();
    }

    double busy_ms = 0.0;
    for (double b : busy)
        busy_ms += b;
    publish(steals.load(), busy_ms);

    if (error)
        std::rethrow_exception(error);
}

} // namespace texcache
