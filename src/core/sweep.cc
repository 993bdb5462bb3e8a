#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include <unistd.h>

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

constexpr auto kHeartbeat = std::chrono::seconds(2);

std::mutex lastStatsMutex;
SweepRunStats lastStats;

/**
 * One pooled Sweep::run in flight. It lives on its caller's stack;
 * every thread that runs its points claims them off one shared
 * counter, lowest index first, in blocks (claim()).
 */
struct Job
{
    Job(const std::function<void(size_t)> &w, size_t points,
        unsigned t, const Job *p)
        : work(w), n(points), threads(t), parent(p)
    {}

    const std::function<void(size_t)> &work;
    const size_t n;
    /** Threads allowed to run its points: the caller plus pool
     *  workers [0, threads - 1). */
    const unsigned threads;
    /** The job whose point the caller was running, if any. */
    const Job *parent;

    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0}; ///< finished points, for the heartbeat
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> busyNs{0};
    std::atomic<uint64_t> helped{0}; ///< points run by other threads
    /** Threads other than the caller inside runPoints, and the first
     *  exception a point threw; both under Pool::mu_. */
    unsigned helpers = 0;
    std::exception_ptr error;

    /**
     * Claim the next block of points [@p begin, @p end), a share of
     * those left: each thread first walks a band of adjacent points
     * (neighbouring render tiles touch the same texels), and the last
     * points go one at a time, so a long point holds up few others.
     * False when none is left.
     */
    bool
    claim(size_t &begin, size_t &end)
    {
        begin = next.load(std::memory_order_relaxed);
        do {
            if (begin >= n)
                return false;
            end = begin + std::max<size_t>(1, (n - begin) / (2 * threads));
        } while (!next.compare_exchange_weak(begin, end,
                                             std::memory_order_relaxed));
        return true;
    }

    bool
    descendsFrom(const Job &ancestor) const
    {
        for (const Job *j = parent; j; j = j->parent)
            if (j == &ancestor)
                return true;
        return false;
    }
};

/** Points of enclosing runs on this thread's stack; a run entered at
 *  zero is top-level and publishes its SweepRunStats. */
thread_local unsigned tlsNesting = 0;
/** The pooled job whose point this thread is running. */
thread_local const Job *tlsJob = nullptr;

/**
 * The process-wide pool: workers start on first need, one per thread
 * slot beyond the caller's, and park on a condition variable when no
 * job admits them. Worker w may run points of a job whose thread
 * count exceeds w + 1, so every job runs on its caller and the lowest
 * workers, and no more than threadCount() threads ever run points.
 * A caller runs its own job's points; once they are all claimed it
 * helps the jobs nested under its own until its job is done.
 */
class Pool
{
  public:
    static Pool &
    get()
    {
        // Never destroyed: at exit, shutdown() joins the workers when
        // none is inside a point, and otherwise leaves them to the
        // process's end (a fatal() from inside a point).
        static Pool *pool = [] {
            Pool *p = new Pool;
            std::atexit([] { get().shutdown(); });
            return p;
        }();
        return *pool;
    }

    /** Run every point of @p job; returns when all have finished. */
    void
    run(Job &job, bool progress, Clock::time_point start)
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            while (!stop_ && workers_.size() + 1 < job.threads)
                workers_.emplace_back(&Pool::workerMain, this,
                                      static_cast<int>(workers_.size()));
            jobs_.push_back(&job);
        }
        cv_.notify_all();

        auto next_beat = start + kHeartbeat;
        auto beat = [&] {
            if (progress && Clock::now() >= next_beat) {
                uint64_t d = job.done.load(std::memory_order_relaxed);
                if (d < job.n)
                    informProgress(d, job.n, millisSince(start));
                next_beat = Clock::now() + kHeartbeat;
            }
        };
        runPoints(job, true, beat);

        // Every point is claimed now, and the ones still running
        // belong to helpers: the job is done when the last detaches.
        std::unique_lock<std::mutex> lk(mu_);
        std::erase(jobs_, &job);
        auto nested = [&](const Job &j) { return j.descendsFrom(job); };
        for (;;) {
            Job *d = nullptr;
            auto ready = [&] {
                d = job.helpers ? pick(nested) : nullptr;
                return !job.helpers || d;
            };
            if (!progress)
                cv_.wait(lk, ready);
            else if (!cv_.wait_for(lk, kHeartbeat, ready)) {
                beat();
                continue;
            }
            if (!d)
                return;
            help(*d, lk);
        }
    }

  private:
    Pool() = default;

    /** The newest job with points left that @p admits; mu_ held. */
    template <typename Admits>
    Job *
    pick(Admits admits)
    {
        for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it)
            if ((*it)->next.load(std::memory_order_relaxed) < (*it)->n &&
                admits(**it))
                return *it;
        return nullptr;
    }

    /** Run points of another thread's job @p j; @p lk holds mu_. */
    void
    help(Job &j, std::unique_lock<std::mutex> &lk)
    {
        ++j.helpers;
        ++busy_;
        lk.unlock();
        runPoints(j, false, [] {});
        lk.lock();
        --busy_;
        if (--j.helpers == 0)
            cv_.notify_all();
    }

    /** Claim and run points of @p job until none is left to claim. */
    template <typename Beat>
    void
    runPoints(Job &job, bool caller, Beat beat)
    {
        static const uint16_t kPointSpan =
            tracing::nameId("sweep.point");
        const Job *outer = tlsJob;
        tlsJob = &job;
        size_t begin, end;
        while (job.claim(begin, end)) {
            // Accounting once per block: a render's thousands of tiny
            // tile points would otherwise contend on the job's line.
            auto t0 = Clock::now();
            for (size_t i = begin; i < end; ++i) {
                if (job.failed.load(std::memory_order_relaxed))
                    break;
                ++tlsNesting;
                try {
                    tracing::ScopedSpan point_span(kPointSpan, i);
                    job.work(i);
                } catch (...) {
                    std::lock_guard<std::mutex> g(mu_);
                    if (!job.error)
                        job.error = std::current_exception();
                    job.failed.store(true, std::memory_order_relaxed);
                }
                --tlsNesting;
            }
            job.busyNs.fetch_add(
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
            if (!caller)
                job.helped.fetch_add(end - begin,
                                     std::memory_order_relaxed);
            job.done.fetch_add(end - begin, std::memory_order_relaxed);
            beat();
        }
        tlsJob = outer;
    }

    void
    workerMain(int self)
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            Job *j = nullptr;
            cv_.wait(lk, [&] {
                j = pick([&](const Job &job) {
                    return unsigned(self) + 1 < job.threads;
                });
                return j || stop_;
            });
            if (!j)
                return;
            help(*j, lk);
        }
    }

    void
    shutdown()
    {
        std::unique_lock<std::mutex> lk(mu_);
        // A worker still inside a point (exit() from a point) would
        // never be joined, nor would the parent's workers in a forked
        // child: leave both to the process's end.
        if (busy_ || !jobs_.empty() || getpid() != pid_)
            return;
        stop_ = true;
        lk.unlock();
        cv_.notify_all();
        for (std::thread &t : workers_)
            t.join();
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Job *> jobs_;   ///< jobs whose caller still claims
    std::vector<std::thread> workers_;
    unsigned busy_ = 0;         ///< threads inside help()
    bool stop_ = false;
    const pid_t pid_ = getpid();
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
    static const uint16_t kRunSpan = tracing::nameId("sweep.run");
    static const uint16_t kPointSpan = tracing::nameId("sweep.point");
    tracing::ScopedSpan run_span(kRunSpan, n);
    unsigned threads = threadCount();
    if (threads > n)
        threads = static_cast<unsigned>(n);
    const bool top = tlsNesting == 0;
    const auto run_start = Clock::now();
    const bool progress = progressEnabled();

    auto publish = [&](uint64_t helped, double busy_ms) {
        if (!top)
            return;
        std::lock_guard<std::mutex> g(lastStatsMutex);
        lastStats.points = n;
        lastStats.threads = threads ? threads : 1;
        lastStats.steals = helped;
        lastStats.wallMillis = millisSince(run_start);
        lastStats.busyMillis = busy_ms;
    };

    if (threads <= 1) {
        auto next_beat = run_start + kHeartbeat;
        for (size_t i = 0; i < n; ++i) {
            {
                ++tlsNesting;
                struct Unnest
                {
                    ~Unnest() { --tlsNesting; }
                } unnest;
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

    Job job(work, n, threads, tlsJob);
    Pool::get().run(job, progress, run_start);
    publish(job.helped.load(), double(job.busyNs.load()) / 1e6);
    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace texcache
