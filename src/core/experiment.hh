/**
 * @file
 * Experiment harness: scene/trace caching and the simulation runners
 * behind every figure and table reproduction.
 *
 * Rendering the benchmark scenes is the expensive step, so a TraceStore
 * memoizes (scene, rasterization order) -> RenderOutput within one
 * process. The runner functions replay a trace through a SceneLayout
 * into cache models and return the statistics the paper plots. They
 * forward to the replay engine (core/shard_replay.hh) over a
 * MemoryTraceSource, with the shard count derived from the trace, so
 * a paper trace is sharded across the sweep pool; their results equal
 * the plain per-address simulators' (tests/oracle.hh). Under miss or
 * texel tracing they replay in stream order and record their misses
 * (see core/shard_replay.hh).
 */

#ifndef TEXCACHE_CORE_EXPERIMENT_HH
#define TEXCACHE_CORE_EXPERIMENT_HH

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/shard_sim.hh"
#include "cache/three_c.hh"
#include "core/scene_layout.hh"
#include "core/sweep.hh"
#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"

namespace texcache {

/**
 * Names one renderable scene: a paper benchmark scene, or a
 * parameterized single-quad test scene (makeQuadTestScene). The spec
 * is the memoization key the TraceStore and the texcached service
 * share, so "scene" in a service request is exactly "scene" in the
 * trace cache. Implicitly constructible from BenchScene so existing
 * call sites read unchanged.
 */
struct SceneSpec
{
    BenchScene bench = BenchScene::Flight;
    bool quad = false;       ///< parameterized quad test scene instead
    unsigned quadTex = 64;   ///< quad texture size (power of two)
    unsigned quadScreen = 128;
    float quadRepeat = 1.0f; ///< uv repeat factor

    SceneSpec() = default;
    SceneSpec(BenchScene s) : bench(s) {} // NOLINT: implicit by design

    static SceneSpec quadScene(unsigned tex, unsigned screen,
                               float repeat = 1.0f);

    /** Stable identity string ("Flight", "quad-64x128-r1", ...). */
    std::string key() const;

    /** Build the scene (deterministic). */
    Scene build() const;
};

/**
 * Memoizes built scenes and rendered traces for one process.
 *
 * When TEXCACHE_TRACE_CACHE_DIR is set, rendered texel traces are
 * additionally persisted there (via trace_io) keyed by scene, raster
 * order and a build stamp, so repeated bench invocations from the
 * same build skip the expensive re-render. Consumers that need only
 * the trace should call trace(), which serves disk hits without
 * rendering; output() always renders (and still populates the disk
 * cache) because the framebuffer and pipeline statistics cannot be
 * reconstructed from a trace file.
 *
 * Not internally synchronized: the texcached service owns one
 * process-wide store and touches it from its dispatcher thread only.
 * The accounting counters alone are relaxed atomics so observers
 * (the engine's metrics snapshot, taken on connection threads) can
 * read them while the dispatcher renders.
 */
class TraceStore
{
  public:
    /** The (memoized) scene object. */
    const Scene &scene(const SceneSpec &s);

    /** The (memoized) render output for a scene and raster order. */
    const RenderOutput &output(const SceneSpec &s,
                               const RasterOrder &order);

    /** The texel trace only - served from the disk cache if possible. */
    const TexelTrace &trace(const SceneSpec &s, const RasterOrder &order);

    /**
     * Render (s, order) with the trace streamed straight to a chunked
     * on-disk file - the trace is never materialized in memory, so
     * arbitrarily large frames spill at bounded RSS. Returns the file
     * path (chunkedTracePath under @p dir, or under
     * TEXCACHE_TRACE_CACHE_DIR when @p dir is empty). A valid existing
     * file is reused without rendering; a torn or stale-schema file is
     * re-rendered in place. The cache directory is pruned to
     * traceCacheCapBytes() afterwards, never evicting the returned
     * file.
     */
    std::string spillTrace(const SceneSpec &s, const RasterOrder &order,
                           const std::string &dir = "");

    /** Wall-clock spent in render() by this store (trace generation,
     *  as opposed to the simulation passes that replay the traces). */
    double
    renderMillis() const
    {
        return renderMillis_.load(std::memory_order_relaxed);
    }

    /** Number of fresh renders this store performed. */
    uint64_t
    renders() const
    {
        return renders_.load(std::memory_order_relaxed);
    }

    /** Number of traces served from the on-disk cache. */
    uint64_t
    diskHits() const
    {
        return diskHits_.load(std::memory_order_relaxed);
    }

  private:
    std::map<std::string, Scene> scenes_;
    std::map<std::pair<std::string, std::string>, RenderOutput> outputs_;
    std::map<std::pair<std::string, std::string>, TexelTrace> diskTraces_;
    std::atomic<double> renderMillis_{0.0}; ///< single writer
    std::atomic<uint64_t> renders_{0};
    std::atomic<uint64_t> diskHits_{0};
};

/**
 * On-disk cache file path for (scene, order) under
 * TEXCACHE_TRACE_CACHE_DIR, or "" when the cache is disabled. The key
 * folds in the build stamp, the trace schema and @p revision - the
 * render path's execution-model revision (kRenderPathRevision), so
 * traces generated by an older pipeline can never satisfy a newer
 * build from disk. Exposed so tests can construct stale-revision
 * paths and assert they are not served.
 */
std::string traceCachePath(const SceneSpec &s, const RasterOrder &order,
                           uint64_t revision = kRenderPathRevision);

/**
 * Cache file path for a *chunked* (streamable) trace of (scene,
 * order): like traceCachePath but with the .ctrace extension, rooted
 * at @p dir when non-empty, else at TEXCACHE_TRACE_CACHE_DIR ("" when
 * neither is set).
 */
std::string chunkedTracePath(const SceneSpec &s, const RasterOrder &order,
                             const std::string &dir = "",
                             uint64_t revision = kRenderPathRevision);

/**
 * Size cap for the trace cache directory, from TEXCACHE_TRACE_CACHE_CAP
 * (bytes, with optional K/M/G suffix); 0 = uncapped. Garbage values
 * are a fatal() configuration error.
 */
uint64_t traceCacheCapBytes();

/**
 * Evict least-recently-modified trace files (.trace, .ctrace and
 * leftover .tmp) from @p dir until its total size is at most
 * @p cap_bytes; @p keep is never evicted. Every eviction is
 * inform()ed. Returns the bytes removed. No-op when @p cap_bytes is 0.
 */
uint64_t pruneTraceCache(const std::string &dir, uint64_t cap_bytes,
                         const std::string &keep = "");

/** Exact stack-distance profile of a trace through a layout. */
ShardedStackProfile profileTrace(const TexelTrace &trace,
                                 const SceneLayout &layout,
                                 unsigned line_bytes);

/** Replay a trace through a layout into one cache configuration. */
CacheStats runCache(const TexelTrace &trace, const SceneLayout &layout,
                    const CacheConfig &config);

/** 3-C classification against the fully associative twin of equal
 *  size. */
MissBreakdown classifyCache(const TexelTrace &trace,
                            const SceneLayout &layout,
                            const CacheConfig &config);

/**
 * Exact fully-associative LRU stats for every capacity in @p sizes
 * from ONE stack-distance pass over the trace (Mattson inclusion).
 * Equivalent to |sizes| runCache calls at kFullyAssoc but paying the
 * replay once.
 */
std::vector<CacheStats> runFaSweep(const TexelTrace &trace,
                                   const SceneLayout &layout,
                                   unsigned line_bytes,
                                   const std::vector<uint64_t> &sizes);

/**
 * Exact stats for an arbitrary config list using the fewest possible
 * trace passes: fully associative configs collapse into one
 * stack-distance pass per distinct line size, set-associative ones
 * into one set pass. Results align with @p configs and are
 * bit-identical to per-config runCache replays.
 */
std::vector<CacheStats>
runCacheSweep(const TexelTrace &trace, const SceneLayout &layout,
              const std::vector<CacheConfig> &configs);

/** Power-of-two cache sizes from @p lo to @p hi inclusive (bytes). */
std::vector<uint64_t> cacheSizeSweep(uint64_t lo = 1 << 10,
                                     uint64_t hi = 512 << 10);

/**
 * First significant working set (section 5.2.3): the smallest swept
 * size capturing at least @p capture of the achievable miss-rate
 * reduction between the smallest and largest swept caches - i.e. the
 * end of the steep part of the miss-rate-versus-size curve.
 */
uint64_t firstWorkingSet(const ShardedStackProfile &prof,
                         const std::vector<uint64_t> &sizes,
                         double capture = 0.85);

/** firstWorkingSet over precomputed miss rates (aligned with sizes). */
uint64_t firstWorkingSet(const std::vector<double> &rates,
                         const std::vector<uint64_t> &sizes,
                         double capture = 0.85);

} // namespace texcache

#endif // TEXCACHE_CORE_EXPERIMENT_HH
