/**
 * @file
 * Shared glue for the figure/table reproduction binaries.
 *
 * Every bench binary renders scenes through a process-local TraceStore,
 * replays the texel trace under the layouts/caches its figure sweeps,
 * and prints the same rows or series the paper reports. Absolute miss
 * rates depend on our synthetic stand-in scenes; the *shapes* (who
 * wins, crossover points) are the reproduction targets recorded in
 * EXPERIMENTS.md.
 */

#ifndef TEXCACHE_BENCH_BENCH_UTIL_HH
#define TEXCACHE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/run_manifest.hh"
#include "core/sweep.hh"
#include "prof/prof.hh"
#include "stats/stats.hh"
#include "tracing/tracing.hh"

namespace texcache {
namespace benchutil {

/** The paper's per-scene scan direction, optionally tiled. */
inline RasterOrder
sceneOrder(BenchScene s, bool tiled = false, unsigned tile = 8)
{
    RasterOrder order;
    order.dir = paperScanDirection(s);
    if (tiled) {
        order.tiled = true;
        order.tileW = tile;
        order.tileH = tile;
    }
    return order;
}

/** Process-wide trace store shared by one bench binary. */
inline TraceStore &
store()
{
    static TraceStore s;
    return s;
}

/** Register the most recent top-level Sweep::run's engine counters. */
inline void
exportSweepStats(stats::Group &g)
{
    SweepRunStats s = Sweep::lastRunStats();
    g.constant("points", s.points, "sweep points executed");
    g.constant("threads", s.threads, "worker threads used");
    g.constant("steals", s.steals,
               "points run by threads other than the caller");
    g.real("wall_ms", s.wallMillis, "whole-run wall-clock");
    g.real("busy_ms", s.busyMillis,
           "point execution time summed over workers");
    g.real("utilization", s.utilization(),
           "busy time / (threads * wall-clock)");
}

/** Trace-generation accounting for @p ts: how much of the bench's
 *  wall-clock went to rendering traces (as opposed to replaying them
 *  through the simulators), and whether the on-disk cache helped.
 *  tools/run_all.sh reads these to print the per-bench split. */
inline void
exportTraceGenStats(stats::Group &g, const TraceStore &ts)
{
    g.real("render_wall_ms", ts.renderMillis(),
           "wall-clock spent rendering traces");
    g.constant("renders", ts.renders(), "fresh scene renders");
    g.constant("disk_trace_hits", ts.diskHits(),
               "traces served from the on-disk cache");
    g.constant("threads", Sweep::threadCount(),
               "render/sweep worker threads");
}

/** Histogram the per-point wall-clocks of a Sweep::run result set. */
template <typename T>
inline void
exportPointTimes(stats::Group &g, const std::vector<SweepResult<T>> &rs)
{
    stats::Distribution &d = g.distribution(
        "point_us", "per-point wall-clock in microseconds");
    for (const SweepResult<T> &r : rs)
        d.sample(static_cast<uint64_t>(r.millis * 1e3));
}

/**
 * Write the bench's BENCH_<bench>.json run manifest plus stats tree.
 * The sweep engine's counters for the last top-level Sweep::run are
 * always included under "sweep"; @p fill adds the bench's config rows,
 * gated metrics and subsystem stats. The path is reported via inform()
 * (stderr) only, so bench stdout - the reproduced tables - stays
 * byte-identical whether or not anyone reads the manifest.
 */
inline void
dumpStats(const std::string &bench,
          const std::function<void(RunManifest &, stats::Group &)>
              &fill = {})
{
    RunManifest manifest(bench);
    stats::Group root;
    exportSweepStats(root.group("sweep"));
    exportTraceGenStats(root.group("trace_gen"), store());
    if (fill)
        fill(manifest, root);
    // When TEXCACHE_TRACE is on, flush the buffered events next to
    // the manifest and record the paths + drop/sample accounting in
    // it; with tracing off this is one branch.
    if (tracing::active()) {
        tracing::DumpInfo t = tracing::dumpToFiles(bench);
        manifest.setTrace({t.chromePath, t.eventsPath, t.recorded,
                           t.dropped, t.sampleN});
    }
    // Same discipline for the sampling profiler: TEXCACHE_PROF_HZ
    // armed it before main(), so flush PROF_<bench>.* next to the
    // manifest and register the paths; disarmed this is one branch.
    if (prof::armed()) {
        prof::DumpInfo p = prof::dumpToFiles(bench);
        manifest.setProfile({p.collapsedPath, p.speedscopePath,
                             p.samples, p.dropped, p.hz});
    }
    manifest.writeFile(&root);
}

} // namespace benchutil
} // namespace texcache

#endif // TEXCACHE_BENCH_BENCH_UTIL_HH
