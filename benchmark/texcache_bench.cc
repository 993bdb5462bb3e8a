/**
 * @file
 * texcache_bench: the program behind the repo benchmark (README.md
 * here).
 *
 * One process runs one workload for a fixed wall-clock budget and
 * prints one JSON line on stdout: the metrics BENCHMARK.json names,
 * how many results were checked and how many of those failed, the
 * digest of every checked result, and a host record. run.py builds
 * this program, runs it, and turns that line into the benchmark's
 * result.
 *
 * It calls only public functions of the texcache layers, and the
 * texcached daemon and its texcached_load driver as built:
 *
 *   scene     TraceStore::scene
 *   pipeline  TraceStore::trace, render
 *   trace     TraceStore::spillTrace, ChunkedTraceWriter,
 *             FileTraceSource::visitChunks
 *   layout    SceneLayout::mapRange / mapPacked
 *   cache     runFaSweep, runCacheSweep (their passes, less mapping)
 *   core      Sweep::run, runCacheSweep, runCacheSweepSharded
 *   service   texcached driven by texcached_load
 *
 * With --trace 0 it reports the end-to-end metrics; with --trace 1
 * the per-layer ones, from a run that splits its budget between
 * tracing off and span tracing on.
 *
 * Usage:
 *   texcache_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  --work DIR --daemon PATH --load PATH --expected FILE
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "core/shard_replay.hh"
#include "core/sweep.hh"
#include "core/version.hh"
#include "service/socket.hh"
#include "simd/isa.hh"
#include "trace/chunked_trace.hh"
#include "trace/trace_source.hh"
#include "tracing/tracing.hh"

extern char **environ;

using namespace texcache;

namespace {

using Clock = std::chrono::steady_clock;

/** Every timed phase runs at least this many iterations. */
constexpr size_t kMinIterations = 3;

/** An end-to-end run sets up at least kMinSetups times and until
 *  kSetupBudgetMs have gone, so a cheap set-up gets a steadier median.
 *  The first set-up pays one-time process costs (page faults, lazy
 *  dispatch), so the median is a warm set-up. */
constexpr unsigned kMinSetups = 3;
constexpr double kSetupBudgetMs = 1000.0;

constexpr double kMiB = 1024.0 * 1024.0;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Quantile @p q of @p v, interpolating linearly between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The peak resident set (VmHWM) of process @p pid ("self" for this
 *  one) so far, or 0 when it cannot be read. */
double
peakRssMib(const std::string &pid = "self")
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KiB
    return 0.0;
}

/** Return the allocator's free pages to the kernel and lower this
 *  process's VmHWM to what is left resident, so the next reading is
 *  the peak of what runs in between, measured from the same floor
 *  whatever ran before. Where the kernel refuses, readings stay the
 *  peak since the process started. */
void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * The peak resident set of one iteration, taken in segments: each
 * segment starts from resetPeakRss(), so its peak does not depend on
 * what earlier segments left in the allocator's free lists. Without
 * the split, scene_to_trace's iteration peak moved from 534 to 568 MiB
 * with the order its scenes ran in.
 */
class IterationPeak
{
  public:
    void
    start()
    {
        peak_ = 0;
        resetPeakRss();
    }

    /** End the current segment and start the next. */
    void
    split()
    {
        peak_ = std::max(peak_, peakRssMib());
        resetPeakRss();
    }

    double
    finish()
    {
        return std::max(peak_, peakRssMib());
    }

  private:
    double peak_ = 0;
};

IterationPeak iterationPeak;

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0)
        return std::thread::hardware_concurrency();
    return static_cast<unsigned>(CPU_COUNT(&set));
}

/** Elapsed milliseconds of @p fn(). */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    auto t0 = Clock::now();
    fn();
    return msSince(t0);
}

/** Parse the JSON file at @p path into @p v; false if it cannot. */
bool
readJson(const std::string &path, json::Value &v)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    json::ParseError err;
    return in && json::parse(text.str(), v, err);
}

/** The number at @p path inside @p v, or 0 when there is none. */
double
numberAt(const json::Value &v, std::initializer_list<std::string_view> path)
{
    const json::Value *x = &v;
    for (std::string_view key : path)
        if (!x->isObject() || !(x = x->find(key)))
            return 0.0;
    return x->isNumber() ? x->number() : 0.0;
}

// --- result digests --------------------------------------------------

/** FNV-1a over 64-bit words: the digest every check pins. */
class Digest
{
  public:
    void
    add(uint64_t w)
    {
        h_ ^= w;
        h_ *= 0x100000001b3ull;
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of the outcome counters of a config list. Evictions are
 *  left out: their meaning differs between the collapsed and the
 *  single-cache passes and is due to be unified. */
void
addStats(Digest &d, const std::vector<CacheStats> &stats)
{
    for (const CacheStats &s : stats) {
        d.add(s.accesses);
        d.add(s.misses);
        d.add(s.coldMisses);
    }
}

Digest
traceDigest(const TexelTrace &t)
{
    Digest d;
    d.add(t.size());
    for (uint64_t r : t.packed())
        d.add(r);
    return d;
}

/**
 * Counts checked results against the digests pinned in expected.json
 * and remembers the digest each check produced, so a run also prints
 * what to pin.
 */
class Checks
{
  public:
    explicit Checks(const json::Value *pinned) : pinned_(pinned) {}

    void
    check(const std::string &name, const Digest &d)
    {
        std::string got = d.hex();
        const json::Value *want = pinned_ ? pinned_->find(name) : nullptr;
        bool ok = want && want->isString() && want->str() == got;
        record(1, ok ? 0 : 1);
        if (!ok && warned_.insert(name).second)
            warn("check ", name, ": digest ", got, " is not the pinned ",
                 want && want->isString() ? want->str() : "(none)");
        digests_[name] = got;
    }

    /** Checked operations that have no pinned digest. */
    void
    record(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::map<std::string, std::string> &
    digests() const
    {
        return digests_;
    }

  private:
    const json::Value *pinned_;
    std::map<std::string, std::string> digests_;
    std::set<std::string> warned_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

// --- run structure ---------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work = ".";
    std::string daemon;
    std::string load;
    std::string expected;
};

using Metrics = std::map<std::string, double>;

/**
 * Run @p iteration - which returns the milliseconds it timed - until
 * @p seconds of wall-clock have passed and at least kMinIterations
 * have run. Returns every iteration's timed milliseconds.
 */
template <typename Fn>
std::vector<double>
timedLoop(double seconds, Fn &&iteration)
{
    std::vector<double> walls;
    auto t0 = Clock::now();
    while (walls.size() < kMinIterations || msSince(t0) < seconds * 1e3)
        walls.push_back(iteration());
    return walls;
}

/**
 * Build the workload state @p make returns - once, or as often as
 * kMinSetups and kSetupBudgetMs ask - each time from scratch, and keep
 * the last one. @p median_ms receives the median set-up time.
 */
template <typename Make>
auto
repeatedSetup(bool once, Make &&make, double &median_ms)
{
    decltype(make()) state;
    std::vector<double> ms;
    double spent = 0;
    while (ms.empty() ||
           (!once && (ms.size() < kMinSetups || spent < kSetupBudgetMs))) {
        state.reset(); // tear-down is not set-up time
        auto t0 = Clock::now();
        state = make();
        ms.push_back(msSince(t0));
        spent += ms.back();
        inform("set-up ms ", ms.back());
    }
    median_ms = median(ms);
    return state;
}

/**
 * The measured phases every workload shares; @p iteration sets
 * @p work (units per iteration) as it runs, and accumulates what it
 * reports per layer while @p collect (if given) is raised.
 *
 * End to end: one untimed warm-up, then the timed loop with tracing
 * off and @p collect raised, reporting the median iteration as wall_s,
 * the work of one iteration over it as work_per_s, and the median of
 * each iteration's peak resident set (see IterationPeak; an iteration
 * may split it into segments) as peak_rss_mib. (On stream_replay
 * the iterations of one run peak from 145 to 153 MiB, so the peak of
 * the whole process moved by up to 10% from run to run.)
 *
 * Traced: the warm-up, half the budget with tracing off and @p collect
 * raised, and half with spans on; then the Chrome trace dump and
 * traced_wall_ratio.
 *
 * Returns the number of iterations that ran with @p collect raised.
 */
template <typename Iter>
size_t
runBatch(const Args &args, Metrics &m, const uint64_t &work, Iter &&iteration,
         bool *collect = nullptr)
{
    bool ignored = false;
    if (!collect)
        collect = &ignored;
    iteration();
    tracing::TraceConfig cfg = tracing::currentConfig();
    if (args.trace) {
        cfg.mask = 0;
        tracing::configure(cfg);
    }
    *collect = true;
    std::vector<double> rss;
    std::vector<double> plain =
        timedLoop(args.trace ? args.seconds / 2 : args.seconds, [&] {
            iterationPeak.start();
            double ms = iteration();
            rss.push_back(iterationPeak.finish());
            return ms;
        });
    *collect = false;
    for (size_t i = 0; i < plain.size(); ++i)
        inform("iteration ms ", plain[i], " peak MiB ", rss[i]);
    if (!args.trace) {
        m["wall_s"] = median(plain) / 1e3;
        m["work_per_s"] = double(work) / m["wall_s"];
        m["peak_rss_mib"] = median(rss);
        return plain.size();
    }
    cfg.mask = tracing::kSpans;
    tracing::configure(cfg);
    std::vector<double> traced = timedLoop(args.seconds / 2, iteration);
    tracing::dumpToFiles("bench_" + args.workload);
    m["traced_wall_ratio"] = median(traced) / median(plain);
    return plain.size();
}

LayoutParams
blocked(unsigned side)
{
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    p.blockW = side;
    p.blockH = side;
    return p;
}

LayoutParams
nonblocked()
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    return p;
}

RasterOrder
paperOrder(BenchScene b)
{
    return paperScanDirection(b) == ScanDirection::Horizontal
               ? RasterOrder::horizontal()
               : RasterOrder::vertical();
}

double
textureMib(TraceStore &store, const std::vector<SceneSpec> &scenes)
{
    double mib = 0;
    for (const SceneSpec &s : scenes)
        mib += double(store.scene(s).textureStorageBytes()) / kMiB;
    return mib;
}

/** A seed-drawn permutation of 0..n-1. */
std::vector<size_t>
permutation(size_t n, std::mt19937_64 &rng)
{
    std::vector<size_t> p(n);
    std::iota(p.begin(), p.end(), size_t(0));
    std::shuffle(p.begin(), p.end(), rng);
    return p;
}

uint64_t
totalAccesses(const std::vector<CacheStats> &stats)
{
    uint64_t n = 0;
    for (const CacheStats &s : stats)
        n += s.accesses;
    return n;
}

/** Milliseconds to map all of @p trace through @p layout in the
 *  chunks a replay pass maps it in, on this thread alone. */
double
mapMs(const TexelTrace &trace, const SceneLayout &layout)
{
    std::vector<Addr> buf;
    return timeMs([&] {
        for (size_t i = 0; i < trace.size(); i += SceneLayout::kMapChunk)
            layout.mapRange(trace, i,
                            std::min(trace.size(), i + SceneLayout::kMapChunk),
                            buf);
    });
}

// --- paper_grid --------------------------------------------------------

/** One fig 5.7 panel: a scene in its paper order under one layout. */
struct Panel
{
    std::string name;
    BenchScene scene;
    LayoutParams layout;
};

/** bench/fig_5_7_associativity's panels. */
std::vector<Panel>
fig57Panels()
{
    return {{"fig5.7/a", BenchScene::Goblet, blocked(8)},
            {"fig5.7/b", BenchScene::Town, blocked(8)},
            {"fig5.7/c", BenchScene::Goblet, nonblocked()}};
}

/** bench/fig_5_7_associativity's grid: 128 B lines, 1 KB-128 KB, at
 *  {1, 2, 4, 8, full} ways, in its order. */
std::vector<CacheConfig>
fig57Configs()
{
    std::vector<CacheConfig> c;
    for (unsigned a : {1u, 2u, 4u, 8u, CacheConfig::kFullyAssoc})
        for (uint64_t s : cacheSizeSweep(1 << 10, 128 << 10))
            if (a == CacheConfig::kFullyAssoc || s / 128 >= a)
                c.push_back({s, 128, a});
    return c;
}

/**
 * The core, layout and cache layers of the sweeps the collected
 * iterations ran, from Sweep::lastRunStats() after each sweep. Every
 * pass maps its trace and then simulates it; the mapping share is the
 * number of passes that mapped each (trace, layout), times a separate
 * single-threaded map of it.
 */
struct SweepLayers
{
    double wallMs = 0; ///< sum of sweep walls
    double busyMs = 0; ///< sum of pass walls
    double slotMs = 0; ///< sum of threads x sweep wall
    uint64_t passes = 0;
    uint64_t accesses = 0;               ///< sum of CacheStats.accesses
    std::map<std::string, uint64_t> maps; ///< passes per (trace, layout)

    /** Account the sweep that just ended; @p keys names the (trace,
     *  layout) of each pass, or of all of them when it has one entry. */
    void
    addLastRun(const std::vector<std::string> &keys)
    {
        SweepRunStats s = Sweep::lastRunStats();
        wallMs += s.wallMillis;
        busyMs += s.busyMillis;
        slotMs += double(s.threads) * s.wallMillis;
        passes += s.points;
        for (const std::string &k : keys)
            maps[k] += keys.size() == 1 ? s.points : 1;
    }

    /** Per-iteration metrics over @p n iterations; @p map_ms and
     *  @p records give each key's map time and trace length. */
    void
    store(Metrics &m, double n, const std::map<std::string, double> &map_ms,
          const std::map<std::string, uint64_t> &records) const
    {
        double map = 0;
        uint64_t addresses = 0;
        for (const auto &[k, count] : maps) {
            map += double(count) * map_ms.at(k);
            addresses += count * records.at(k);
        }
        double sim = busyMs - map;
        m["core.sweep_ms"] = wallMs / n;
        m["core.sweep_passes"] = double(passes) / n;
        m["core.sweep_utilization"] = slotMs > 0 ? busyMs / slotMs : 0;
        m["layout.map_ms"] = map / n;
        m["layout.addresses"] = double(addresses) / n;
        m["layout.map_ns_per_addr"] =
            addresses ? map * 1e6 / double(addresses) : 0;
        m["cache.sim_ms"] = sim / n;
        m["cache.sim_accesses"] = double(accesses) / n;
        m["cache.sim_ns_per_access"] =
            accesses ? sim * 1e6 / double(accesses) : 0;
    }
};

struct PaperScenes
{
    std::unique_ptr<TraceStore> store = std::make_unique<TraceStore>();
    double buildMs = 0;
    double renderMs = 0;
};

/**
 * paper_grid: bench/fig_5_2 and bench/fig_5_7 once traces exist.
 * Set-up builds the four paper scenes and renders each horizontally
 * and vertically. Every iteration then runs
 *  - fig 5.2: the eight (scene, direction) fully associative 32 B
 *    curves, 1 KB-512 KB, nonblocked, as parallel runFaSweep passes on
 *    the sweep pool, and the first working set of each;
 *  - fig 5.7: its three panels, each one runCacheSweep over the
 *    40-config grid.
 * Points and configs stay in the figures' order, so the pool packs
 * the passes as the figure benches do; the seed permutes the scene
 * order of the fig 5.7 panels, which are separate sweeps. (Permuting
 * the fig 5.2 points repacks its one sweep on every iteration, which
 * widened the spread of wall_s over ten seeds from 5.3% to 7.5%.)
 */
void
paperGrid(const Args &args, Checks &checks, Metrics &m)
{
    std::mt19937_64 rng(args.seed);
    const std::vector<BenchScene> scenes = allBenchScenes();
    const std::vector<RasterOrder> dirs = {RasterOrder::horizontal(),
                                           RasterOrder::vertical()};
    const std::vector<uint64_t> fa_sizes = cacheSizeSweep(1 << 10, 512 << 10);
    const std::vector<Panel> panels = fig57Panels();
    const std::vector<CacheConfig> grid = fig57Configs();

    double setup_ms = 0;
    auto ps = repeatedSetup(
        args.trace,
        [&] {
            auto p = std::make_unique<PaperScenes>();
            for (BenchScene b : scenes) {
                p->buildMs += timeMs([&] { p->store->scene(b); });
                for (const RasterOrder &o : dirs)
                    p->renderMs += timeMs([&] { p->store->trace(b, o); });
            }
            return p;
        },
        setup_ms);
    TraceStore &store = *ps->store;
    auto key = [](BenchScene b, const RasterOrder &o) {
        return std::string(benchSceneName(b)) + "/" + o.str();
    };
    for (BenchScene b : scenes)
        for (const RasterOrder &o : dirs)
            checks.check("trace/" + key(b, o), traceDigest(store.trace(b, o)));

    struct Point
    {
        std::string key;
        const TexelTrace *trace;
        const SceneLayout *layout;
    };
    struct Curve
    {
        std::vector<CacheStats> stats;
        uint64_t workingSet = 0;
    };

    bool collect = false;
    SweepLayers layers;
    uint64_t accesses_per_iteration = 0;
    auto iteration = [&] {
        std::vector<size_t> perm = permutation(scenes.size(), rng);
        std::vector<SweepResult<Curve>> curves;
        std::vector<Point> points;
        std::vector<std::pair<const Panel *, std::vector<CacheStats>>> tables;

        double ms = timeMs([&] {
            std::map<BenchScene, std::unique_ptr<SceneLayout>> base;
            for (BenchScene b : scenes)
                base[b] = std::make_unique<SceneLayout>(store.scene(b),
                                                        nonblocked());
            for (const RasterOrder &o : dirs)
                for (BenchScene b : scenes)
                    points.push_back(
                        {key(b, o), &store.trace(b, o), base[b].get()});
            curves = Sweep::run(points, [&](const Point &p) {
                Curve c;
                c.stats = runFaSweep(*p.trace, *p.layout, 32, fa_sizes);
                std::vector<double> rates;
                for (const CacheStats &s : c.stats)
                    rates.push_back(s.missRate());
                c.workingSet = firstWorkingSet(rates, fa_sizes);
                return c;
            });
            if (collect) {
                std::vector<std::string> keys;
                for (const Point &p : points)
                    keys.push_back("fig5.2/" + p.key);
                layers.addLastRun(keys);
            }

            for (size_t i : perm) {
                for (const Panel &p : panels) {
                    if (p.scene != scenes[i])
                        continue;
                    SceneLayout layout(store.scene(p.scene), p.layout);
                    tables.emplace_back(
                        &p, runCacheSweep(store.trace(p.scene,
                                                      paperOrder(p.scene)),
                                          layout, grid));
                    if (collect)
                        layers.addLastRun({p.name});
                }
            }
        });

        accesses_per_iteration = 0;
        for (size_t k = 0; k < points.size(); ++k) {
            Digest d;
            addStats(d, curves[k].value.stats);
            d.add(curves[k].value.workingSet);
            checks.check("fig5.2/" + points[k].key, d);
            accesses_per_iteration += totalAccesses(curves[k].value.stats);
        }
        for (const auto &[p, stats] : tables) {
            Digest d;
            addStats(d, stats);
            checks.check(p->name, d);
            accesses_per_iteration += totalAccesses(stats);
        }
        if (collect)
            layers.accesses += accesses_per_iteration;
        return ms;
    };

    double n = double(
        runBatch(args, m, accesses_per_iteration, iteration, &collect));
    if (!args.trace) {
        m["setup_s"] = setup_ms / 1e3;
        return;
    }

    std::map<std::string, double> map_ms;
    std::map<std::string, uint64_t> records;
    for (BenchScene b : scenes) {
        SceneLayout layout(store.scene(b), nonblocked());
        for (const RasterOrder &o : dirs) {
            const TexelTrace &t = store.trace(b, o);
            map_ms["fig5.2/" + key(b, o)] = mapMs(t, layout);
            records["fig5.2/" + key(b, o)] = t.size();
        }
    }
    for (const Panel &p : panels) {
        SceneLayout layout(store.scene(p.scene), p.layout);
        const TexelTrace &t = store.trace(p.scene, paperOrder(p.scene));
        map_ms[p.name] = mapMs(t, layout);
        records[p.name] = t.size();
    }
    layers.store(m, n, map_ms, records);
    std::vector<SceneSpec> specs(scenes.begin(), scenes.end());
    m["scene.texture_mib"] = textureMib(store, specs);
    m["setup.scene_ms"] = ps->buildMs;
    m["setup.render_ms"] = ps->renderMs;
}

// --- scene_to_trace ------------------------------------------------------

/**
 * scene_to_trace: the fig 6.x / Table 4.1 traffic. Every iteration
 * gives each paper scene a fresh TraceStore, builds it and renders it
 * in the paper scan order and in 8x8 tiles; no cache is simulated.
 * The seed permutes the scene and order visits. Set-up is the
 * first-use cost of the front end: a throwaway store builds and
 * renders Goblet, the smallest scene.
 */
void
sceneToTrace(const Args &args, Checks &checks, Metrics &m)
{
    std::mt19937_64 rng(args.seed);
    const std::vector<BenchScene> scenes = allBenchScenes();
    auto ordersOf = [](BenchScene b) {
        return std::vector<RasterOrder>{paperOrder(b),
                                        RasterOrder::tiledOrder(8, 8)};
    };

    double setup_ms = 0;
    repeatedSetup(
        args.trace,
        [&] {
            auto store = std::make_unique<TraceStore>();
            store->trace(BenchScene::Goblet, paperOrder(BenchScene::Goblet));
            return store;
        },
        setup_ms);

    bool collect = false;
    double build_ms = 0, render_ms = 0, texels = 0, fragments = 0,
           texture_mib = 0;
    uint64_t records_per_iteration = 0;
    auto iteration = [&] {
        double ms = 0;
        records_per_iteration = 0;
        for (size_t i : permutation(scenes.size(), rng)) {
            BenchScene b = scenes[i];
            iterationPeak.split();
            auto store = std::make_unique<TraceStore>();
            double build = timeMs([&] { store->scene(b); });
            ms += build;
            std::vector<RasterOrder> orders = ordersOf(b);
            for (size_t k : permutation(orders.size(), rng)) {
                const TexelTrace *t = nullptr;
                double render =
                    timeMs([&] { t = &store->trace(b, orders[k]); });
                ms += render;
                records_per_iteration += t->size();
                checks.check(std::string(benchSceneName(b)) + "/" +
                                 orders[k].str(),
                             traceDigest(*t));
                if (collect) {
                    render_ms += render;
                    texels += double(t->size());
                    fragments +=
                        double(store->output(b, orders[k]).stats.fragments);
                }
            }
            if (collect) {
                build_ms += build;
                texture_mib +=
                    double(store->scene(b).textureStorageBytes()) / kMiB;
            }
        }
        return ms;
    };

    double n = double(
        runBatch(args, m, records_per_iteration, iteration, &collect));
    if (!args.trace) {
        m["setup_s"] = setup_ms / 1e3;
        return;
    }
    m["scene.build_ms"] = build_ms / n;
    m["scene.texture_mib"] = texture_mib / n;
    m["pipeline.render_ms"] = render_ms / n;
    m["pipeline.texels"] = texels / n;
    m["pipeline.fragments"] = fragments / n;
    m["pipeline.texels_per_s"] = texels / (render_ms / 1e3);
}

// --- stream_replay -------------------------------------------------------

struct StreamScene
{
    std::unique_ptr<TraceStore> store = std::make_unique<TraceStore>();
    std::unique_ptr<SceneLayout> layout;
};

Digest
fileDigest(const std::string &path)
{
    FileTraceSource src(path);
    Digest d;
    d.add(src.records());
    src.visitChunks(0, src.chunkCount(),
                    [&](const uint64_t *recs, size_t n) {
                        for (size_t i = 0; i < n; ++i)
                            d.add(recs[i]);
                    });
    return d;
}

/**
 * stream_replay: trace I/O plus the sharded engine. Set-up builds
 * Flight; every iteration deletes the last chunked trace, spills
 * Flight (horizontal) to disk through spillTrace, then streams it back
 * through FileTraceSource into runCacheSweepSharded over the fig 5.7
 * grid with a blocked 8x8 layout. The seed permutes the config order.
 */
void
streamReplay(const Args &args, Checks &checks, Metrics &m)
{
    std::mt19937_64 rng(args.seed);
    const BenchScene scene = BenchScene::Flight;
    const RasterOrder order = RasterOrder::horizontal();
    const std::vector<CacheConfig> grid = fig57Configs();
    const std::string dir = args.work + "/spill";

    double setup_ms = 0;
    auto ss = repeatedSetup(
        args.trace,
        [&] {
            auto s = std::make_unique<StreamScene>();
            s->layout = std::make_unique<SceneLayout>(s->store->scene(scene),
                                                      blocked(8));
            return s;
        },
        setup_ms);
    TraceStore &store = *ss->store;
    const SceneLayout &layout = *ss->layout;

    std::string path;
    uint64_t accesses_per_iteration = 0;
    auto iteration = [&] {
        if (!path.empty())
            std::filesystem::remove(path);
        std::vector<size_t> perm = permutation(grid.size(), rng);
        std::vector<CacheConfig> cfgs;
        for (size_t i : perm)
            cfgs.push_back(grid[i]);
        std::vector<CacheStats> permuted;
        double ms = timeMs([&] {
            path = store.spillTrace(scene, order, dir);
            FileTraceSource src(path);
            permuted = runCacheSweepSharded(src, layout, cfgs);
        });
        std::vector<CacheStats> stats(grid.size());
        for (size_t i = 0; i < perm.size(); ++i)
            stats[perm[i]] = permuted[i];
        Digest d;
        addStats(d, stats);
        checks.check("sweep", d);
        checks.check("trace", fileDigest(path));
        accesses_per_iteration = totalAccesses(stats);
        return ms;
    };

    runBatch(args, m, accesses_per_iteration, iteration);
    if (!args.trace) {
        m["setup_s"] = setup_ms / 1e3;
        std::filesystem::remove_all(dir);
        return;
    }

    // The layers of one iteration, apart: render into memory with the
    // spill's options, write that trace, read the spilled file back,
    // map it, then the sharded engine per kind of config against its
    // own one-shard run.
    RenderOptions ro;
    ro.writeFramebuffer = false;
    ro.countRepetition = false;
    RenderOutput out;
    m["pipeline.render_ms"] =
        timeMs([&] { out = render(store.scene(scene), order, ro); });
    m["pipeline.texels"] = double(out.trace.size());
    m["pipeline.fragments"] = double(out.stats.fragments);
    m["pipeline.texels_per_s"] =
        double(out.trace.size()) / (m["pipeline.render_ms"] / 1e3);
    const std::string copy = dir + "/layer-write.ctrace";
    m["trace.write_ms"] = timeMs([&] {
        ChunkedTraceWriter w(copy);
        w.append(out.trace.packed().data(), out.trace.size());
        w.finalize();
    });
    m["trace.write_mib"] = double(std::filesystem::file_size(copy)) / kMiB;
    std::filesystem::remove(copy);
    out = RenderOutput{};

    FileTraceSource src(path);
    std::vector<uint64_t> recs;
    recs.reserve(src.records());
    m["trace.read_ms"] = timeMs([&] {
        src.visitChunks(0, src.chunkCount(),
                        [&](const uint64_t *r, size_t n) {
                            recs.insert(recs.end(), r, r + n);
                        });
    });
    m["trace.read_mib_per_s"] =
        double(recs.size() * sizeof(uint64_t)) / kMiB /
        (m["trace.read_ms"] / 1e3);

    std::vector<Addr> addrs;
    addrs.reserve(recs.size());
    double map = timeMs([&] { layout.mapPacked(recs.data(), recs.size(), addrs); });
    m["layout.map_ms"] = map;
    m["layout.addresses"] = double(addrs.size());
    m["layout.map_ns_per_addr"] = map * 1e6 / double(addrs.size());
    recs = {};
    addrs = {};

    std::vector<CacheConfig> sa, fa;
    for (const CacheConfig &c : grid)
        (c.assoc == CacheConfig::kFullyAssoc ? fa : sa).push_back(c);
    auto shardMs = [&](const std::vector<CacheConfig> &c, unsigned shards) {
        return timeMs([&] { runCacheSweepSharded(src, layout, c, shards); });
    };
    m["core.shard_sa_ms"] = shardMs(sa, 0);
    m["core.shard_fa_ms"] = shardMs(fa, 0);
    m["core.shard_sa_speedup"] = shardMs(sa, 1) / m["core.shard_sa_ms"];
    m["core.shard_fa_speedup"] = shardMs(fa, 1) / m["core.shard_fa_ms"];

    m["scene.texture_mib"] = textureMib(store, {scene});
    m["setup.scene_ms"] = setup_ms;
    std::filesystem::remove_all(dir);
}

// --- service_mix ---------------------------------------------------------

/**
 * Start @p argv with this process's environment, less TEXCACHE_TRACE
 * and whatever @p env sets, plus @p env. Its stdout goes to our stderr
 * (the bench log), so our stdout keeps only the result line.
 */
pid_t
spawn(std::vector<std::string> argv, const std::vector<std::string> &env)
{
    auto keyOf = [](std::string_view kv) { return kv.substr(0, kv.find('=')); };
    std::vector<std::string> vars;
    for (char **e = environ; e && *e; ++e) {
        std::string_view k = keyOf(*e);
        bool replaced = k == "TEXCACHE_TRACE" ||
                        std::any_of(env.begin(), env.end(), [&](auto &x) {
                            return keyOf(x) == k;
                        });
        if (!replaced)
            vars.emplace_back(*e);
    }
    vars.insert(vars.end(), env.begin(), env.end());
    std::vector<char *> envp, args;
    for (std::string &s : vars)
        envp.push_back(s.data());
    envp.push_back(nullptr);
    for (std::string &s : argv)
        args.push_back(s.data());
    args.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    pid_t pid = -1;
    int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                           envp.data());
    ::posix_spawn_file_actions_destroy(&actions);
    fatal_if(rc != 0, "cannot start ", argv[0], ": ", std::strerror(rc));
    return pid;
}

/** One request/reply exchange on a fresh connection; false on a
 *  transport failure. */
bool
control(const std::string &socket, std::string_view body, std::string &reply)
{
    int fd = service::connectUnix(socket);
    if (fd < 0)
        return false;
    bool ok = service::writeFrame(fd, body) && service::readFrame(fd, reply);
    ::close(fd);
    return ok;
}

/** A texcached process from this build, serving on a unix socket. */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::string &socket, bool traced)
        : socket_(socket),
          pid_(spawn({exe, "--socket", socket},
                     traced ? std::vector<std::string>{"TEXCACHE_TRACE=spans"}
                            : std::vector<std::string>{}))
    {
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Block until the daemon answers a ping (fatal after 30 s). */
    void
    waitReady() const
    {
        auto t0 = Clock::now();
        std::string reply;
        while (!control(socket_, "{\"kind\":\"ping\"}", reply)) {
            fatal_if(msSince(t0) > 30e3, "texcached never answered on ",
                     socket_);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    /** The parsed reply to a stats request (null on failure). */
    json::Value
    stats() const
    {
        json::Value v;
        std::string reply;
        json::ParseError err;
        if (!control(socket_, "{\"kind\":\"stats\"}", reply) ||
            !json::parse(reply, v, err))
            v = json::Value();
        return v;
    }

    /** The daemon's peak resident set (VmHWM) so far. */
    double
    peakRssMib() const
    {
        return ::peakRssMib(std::to_string(pid_));
    }

    /** Ask for a drain-and-exit, then reap (SIGKILL after 30 s). */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        std::string reply;
        control(socket_, "{\"kind\":\"shutdown\"}", reply);
        auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (msSince(t0) > 30e3) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_;
};

/** What one service_mix round measured. */
struct LoadRound
{
    double setupMs = 0;    ///< daemon start until it answers a ping
    double wallMs = 0;     ///< texcached_load's own wall for its requests
    double rssMib = 0;     ///< the daemon's VmHWM before shutdown
    uint64_t requests = 0; ///< requests texcached_load sent
    json::Value load;      ///< texcached_load's BENCH_texcached.json
    json::Value stats;     ///< the daemon's stats reply after the load
};

/**
 * One service_mix round, the way CI and tools/run_all.sh drive the
 * daemon: start texcached, wait for a ping, run texcached_load against
 * it with its defaults, read the daemon's stats and peak RSS, and shut
 * it down. texcached_load checks every reply byte for byte against the
 * direct library path and retries queue_full replies; a round counts
 * its requests as attempted and its mismatches and errors as failed.
 */
LoadRound
loadRound(const Args &args, bool traced, Checks &checks)
{
    const std::string socket = args.work + "/texcached.sock";
    const std::string dir = args.work + "/load";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    LoadRound r;
    auto t0 = Clock::now();
    Daemon daemon(args.daemon, socket, traced);
    daemon.waitReady();
    r.setupMs = msSince(t0);
    pid_t load = spawn({args.load, "--socket", socket},
                       {"TEXCACHE_STATS_DIR=" + dir});
    int status = 0;
    ::waitpid(load, &status, 0);
    bool read = readJson(dir + "/BENCH_texcached.json", r.load);
    r.stats = daemon.stats();
    r.rssMib = daemon.peakRssMib();
    daemon.stop();

    auto metric = [&](std::string_view k) {
        return numberAt(r.load, {"metrics", k, "value"});
    };
    r.requests = uint64_t(metric("requests"));
    double rps = metric("requests_per_sec");
    bool ok = read && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
              r.requests > 0 && rps > 0;
    double errors = metric("mismatches") + metric("transport_errors") +
                    metric("other_errors");
    checks.record(std::max<uint64_t>(1, r.requests),
                  ok ? 0 : std::max<uint64_t>(1, uint64_t(errors)));
    r.wallMs = ok ? double(r.requests) / rps * 1e3 : msSince(t0);
    return r;
}

/**
 * service_mix: texcached under the traffic texcached_load defines and
 * CI runs - 8 closed-loop clients, 1000 requests, 700 per mille drawn
 * from 12 hot sweep templates that fold, the rest unique-named classify
 * requests that never do. Every iteration is one round on a fresh
 * daemon; set-up is the daemon's start until it answers a ping.
 * texcached_load's schedule is fixed, so the seed does not change it.
 */
void
serviceMix(const Args &args, Checks &checks, Metrics &m)
{
    bool collect = false;
    std::vector<double> setup, rss, p50, p99, fold, server_p99;
    double batches = 0, queue_full = 0;
    uint64_t requests = 0;
    auto iteration = [&] {
        LoadRound r =
            loadRound(args, tracing::enabled(tracing::kSpans), checks);
        requests = r.requests;
        if (collect) {
            setup.push_back(r.setupMs);
            rss.push_back(r.rssMib);
            p50.push_back(numberAt(r.load, {"stats", "load", "p50_ms"}));
            p99.push_back(numberAt(r.load, {"stats", "load", "p99_ms"}));
            fold.push_back(
                numberAt(r.load, {"metrics", "fold_coalescible", "value"}));
            queue_full +=
                numberAt(r.load, {"metrics", "queue_full_retries", "value"});
            batches += numberAt(r.stats, {"batches"});
            server_p99.push_back(numberAt(r.stats, {"latency_us", "p99"}) /
                                 1e3);
        }
        return r.wallMs;
    };

    double n = double(runBatch(args, m, requests, iteration, &collect));
    if (!args.trace) {
        m["setup_s"] = median(setup) / 1e3;
        m["peak_rss_mib"] = median(rss);
        return;
    }
    m["service.latency_p50_ms"] = median(p50);
    m["service.latency_p99_ms"] = median(p99);
    m["service.requests"] = double(requests);
    m["service.batches"] = batches / n;
    m["service.fold_factor"] = median(fold);
    m["service.queue_full"] = queue_full / n;
    m["service.server_latency_p99_ms"] = median(server_p99);
    m["setup.daemon_ms"] = median(setup);
}

// --- entry -------------------------------------------------------------

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work")
            a.work = v;
        else if (k == "--daemon")
            a.daemon = v;
        else if (k == "--load")
            a.load = v;
        else if (k == "--expected")
            a.expected = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void
writeResult(const Args &args, const Checks &checks, const Metrics &m)
{
    JsonWriter w(std::cout, /*pretty=*/false);
    w.beginObject();
    w.kv("workload", args.workload);
    w.kv("seed", args.seed);
    w.kv("trace", args.trace ? 1 : 0);
    w.kv("attempted", checks.attempted());
    w.kv("failed", checks.failed());
    w.key("metrics");
    w.beginObject();
    for (const auto &[k, v] : m)
        w.kv(k, v);
    w.endObject();
    w.key("digests");
    w.beginObject();
    for (const auto &[k, v] : checks.digests())
        w.kv(k, v);
    w.endObject();
    w.key("host");
    w.beginObject();
    w.kv("nproc", cpuCount());
    w.kv("sweep_threads", Sweep::threadCount());
    w.kv("isa", simd::isaName(simd::activeIsa()));
    w.kv("build_type", TEXCACHE_BUILD_TYPE);
    w.kv("cxx_flags", TEXCACHE_BENCH_CXX_FLAGS);
    w.kv("compiler", TEXCACHE_COMPILER);
    w.kv("git_sha", TEXCACHE_GIT_SHA);
    w.endObject();
    w.endObject();
    std::cout << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: texcache_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --work DIR --daemon PATH "
                     "--load PATH --expected FILE\n";
        return 2;
    }

    json::Value expected;
    fatal_if(!args.expected.empty() && !readJson(args.expected, expected),
             "cannot read pinned digests from ", args.expected);
    Checks checks(expected.isObject() ? expected.find(args.workload)
                                      : nullptr);

    Metrics m;
    std::filesystem::create_directories(args.work);

    if (args.workload == "paper_grid")
        paperGrid(args, checks, m);
    else if (args.workload == "scene_to_trace")
        sceneToTrace(args, checks, m);
    else if (args.workload == "stream_replay")
        streamReplay(args, checks, m);
    else if (args.workload == "service_mix")
        serviceMix(args, checks, m);
    else
        fatal("unknown workload '", args.workload, "'");

    writeResult(args, checks, m);
    return 0;
}
