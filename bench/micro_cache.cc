/**
 * @file
 * Google-benchmark microbenchmark for the cache simulator components
 * (set-associative CacheSim, O(1) FullyAssocLru, Mattson profiler,
 * the flat LineSet), followed by a fig_5_2-shaped sweep workload that
 * measures the sweep engine end to end: brute-force one-replay-per-
 * config (the pre-sweep-engine execution model) versus single-pass
 * capacity collapapse + parallel passes. The comparison is written to
 * BENCH_cache_sim.json (accesses/sec before/after) so the perf
 * trajectory is tracked across PRs; EXPERIMENTS.md records the
 * measured history.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/cache_sim.hh"
#include "cache/line_table.hh"
#include "cache/stack_dist.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"

using namespace texcache;

namespace {

/** Texture-like address stream: mostly local walk, occasional jump. */
inline uint64_t
nextAddr(uint32_t &x, uint64_t &cursor)
{
    x = x * 1664525u + 1013904223u;
    if ((x >> 24) < 8)
        cursor = (x >> 4) & 0xffffff;
    else
        cursor = (cursor + ((x >> 8) & 0xff)) & 0xffffff;
    return cursor;
}

void
cacheSimSetAssoc(benchmark::State &state)
{
    CacheSim cache({32 * 1024, 64, static_cast<unsigned>(state.range(0))});
    uint32_t x = 7;
    uint64_t cursor = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(nextAddr(x, cursor)));
    state.SetItemsProcessed(state.iterations());
}

void
fullyAssocLru(benchmark::State &state)
{
    FullyAssocLru cache(32 * 1024, 64);
    uint32_t x = 7;
    uint64_t cursor = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(nextAddr(x, cursor)));
    state.SetItemsProcessed(state.iterations());
}

void
stackDistProfiler(benchmark::State &state)
{
    // Spans of 64 K addresses, as the replay engine's stack passes
    // feed them (StackSegmentPass::accessRange).
    std::vector<Addr> span(1 << 16);
    uint32_t x = 7;
    uint64_t cursor = 0;
    for (Addr &a : span)
        a = nextAddr(x, cursor);
    StackDistProfiler prof(64);
    for (auto _ : state)
        prof.accessRange(span.data(), span.size());
    state.SetItemsProcessed(state.iterations() * span.size());
    benchmark::DoNotOptimize(prof.coldMisses());
}

void
lineSetInsert(benchmark::State &state)
{
    LineSet set;
    uint32_t x = 7;
    uint64_t cursor = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(set.insert(nextAddr(x, cursor) >> 6));
    state.SetItemsProcessed(state.iterations());
}

/** One full serial replay of @p cfg through a plain CacheSim: the
 *  per-config execution model the seed benches used. */
CacheStats
bruteForce(const TexelTrace &trace, const SceneLayout &layout,
           const CacheConfig &cfg)
{
    CacheSim cache(cfg);
    std::vector<Addr> buf;
    for (size_t i = 0; i < trace.size(); i += SceneLayout::kMapChunk) {
        layout.mapRange(trace, i,
                        std::min(trace.size(), i + SceneLayout::kMapChunk),
                        buf);
        for (Addr a : buf)
            cache.access(a);
    }
    return cache.stats();
}

/**
 * The fig_5_2 sweep workload: a rendered texel trace replayed through
 * the nonblocked layout at every cache size of the figure's sweep,
 * for two line sizes. "Before" executes it the way the seed benches
 * did - one full serial replay per configuration; "after" uses the
 * sweep engine - one stack-distance pass per line size, passes run
 * via Sweep::run. Both simulate the same logical accesses; the
 * manifest reports accesses/sec for each, and tools/check_bench.py
 * gates CI on the committed baseline.
 */
void
sweepWorkload()
{
    Scene scene = makeQuadTestScene(256, 512, 4.0f);
    RenderOptions opts;
    opts.writeFramebuffer = false;
    RenderOutput out = render(scene, RasterOrder::horizontal(), opts);
    LayoutParams params;
    params.kind = LayoutKind::Nonblocked;
    SceneLayout layout(scene, params);

    std::vector<uint64_t> sizes = cacheSizeSweep(1 << 10, 512 << 10);
    const unsigned kLineSizes[] = {32, 64};

    // Before: one replay per (line, size) config, serially, exactly
    // as the seed benches ran.
    struct ConfigPerf
    {
        CacheConfig config;
        uint64_t accesses = 0;
        uint64_t misses = 0;
        double millis = 0.0;
    };
    std::vector<ConfigPerf> perConfig;
    uint64_t logicalAccesses = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned line : kLineSizes) {
        for (uint64_t size : sizes) {
            CacheConfig cfg{size, line, CacheConfig::kFullyAssoc};
            auto c0 = std::chrono::steady_clock::now();
            CacheStats stats = bruteForce(out.trace, layout, cfg);
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - c0)
                            .count();
            perConfig.push_back({cfg, stats.accesses, stats.misses, ms});
            logicalAccesses += stats.accesses;
        }
    }
    double beforeMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    // After: the full sweep collapses into one pass per line size;
    // the passes run on the sweep thread pool.
    std::vector<unsigned> lines(kLineSizes,
                                kLineSizes + std::size(kLineSizes));
    auto t1 = std::chrono::steady_clock::now();
    auto after = Sweep::run(lines, [&](unsigned line) {
        return runFaSweep(out.trace, layout, line, sizes);
    });
    double afterMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t1)
                         .count();

    // The collapsed passes must reproduce the brute-force numbers.
    size_t k = 0;
    for (size_t l = 0; l < lines.size(); ++l) {
        for (size_t s = 0; s < sizes.size(); ++s, ++k) {
            const CacheStats &fast = after[l].value[s];
            panic_if(fast.misses != perConfig[k].misses ||
                         fast.accesses != perConfig[k].accesses,
                     "sweep engine diverged from brute force at ",
                     perConfig[k].config.str());
        }
    }

    double beforeAps = logicalAccesses / (beforeMs / 1e3);
    double afterAps = logicalAccesses / (afterMs / 1e3);

    TextTable table("fig_5_2 sweep workload: per-config brute-force "
                    "replay (texels/s = accesses/s here: 1 address "
                    "per texel in the nonblocked layout)");
    table.header({"Config", "Accesses", "Wall(ms)", "Accesses/s"});
    for (const ConfigPerf &c : perConfig)
        table.row({c.config.str(), std::to_string(c.accesses),
                   fmtFixed(c.millis, 2),
                   fmtFixed(c.accesses / (c.millis / 1e3) / 1e6, 1) +
                       "M"});
    table.print(std::cout);

    std::cout << "\nsweep engine (" << lines.size()
              << " single-pass sweeps via Sweep::run, "
              << Sweep::threadCount() << " threads): "
              << fmtFixed(afterMs, 1) << " ms vs "
              << fmtFixed(beforeMs, 1) << " ms brute force -> "
              << fmtFixed(beforeMs / afterMs, 2) << "x ("
              << fmtFixed(afterAps / 1e6, 1) << "M vs "
              << fmtFixed(beforeAps / 1e6, 1) << "M accesses/s)\n";

    benchutil::dumpStats("cache_sim", [&](RunManifest &m,
                                          stats::Group &root) {
        m.config("workload", "fig_5_2_sweep");
        m.config("threads", uint64_t(Sweep::threadCount()));
        m.config("configs", uint64_t(perConfig.size()));

        // Determinism pins: any simulator change that alters what the
        // workload simulates fails the gate exactly.
        m.metric("configs", double(perConfig.size()), "exact");
        m.metric("logical_accesses", double(logicalAccesses), "exact");
        // Throughput gates: machine-dependent, so the wide tolerance
        // only catches real collapses (CI overrides it when injecting
        // a synthetic regression to prove the gate trips).
        m.metric("before_accesses_per_sec", beforeAps, "higher", 0.5);
        m.metric("after_accesses_per_sec", afterAps, "higher", 0.5);
        m.metric("speedup", beforeMs / afterMs, "report");
        m.metric("before_wall_ms", beforeMs, "report");
        m.metric("after_wall_ms", afterMs, "report");

        stats::Distribution &d = root.distribution(
            "config_us", "per-config brute-force replay wall-clock "
                         "in microseconds");
        for (const ConfigPerf &c : perConfig)
            d.sample(static_cast<uint64_t>(c.millis * 1e3));
    });
}

} // namespace

BENCHMARK(cacheSimSetAssoc)->Arg(1)->Arg(2)->Arg(8);
BENCHMARK(fullyAssocLru);
BENCHMARK(stackDistProfiler);
BENCHMARK(lineSetInsert);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    sweepWorkload();
    return 0;
}
