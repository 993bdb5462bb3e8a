/**
 * @file
 * The replay engine: every simulation of a texel stream, sharded
 * across the sweep pool and fed from a stream of chunks.
 *
 * The sweep pool (core/sweep.hh) parallelizes across independent
 * sweep points; these runners parallelize *inside* one call by
 * sharding the simulation itself (cache/shard_sim.hh) and consuming
 * the trace as a stream of chunks (trace/trace_source.hh). The
 * TexelTrace runners of core/experiment.hh forward here over a
 * MemoryTraceSource, so this is the only replay engine. A call runs
 * one pass per kind of simulation:
 *
 *  - set-associative configurations share one set pass ("sim.sa"
 *    span): the stream is decoded once, in windows of chunks mapped
 *    in parallel; each address is scattered by its shard key,
 *    (addr >> lineShift) & (K - 1) with K the smallest power of two
 *    >= shards, into per-shard buckets, and each shard simulates only
 *    its own sets' accesses. Configurations with fewer sets than
 *    shards read the whole window in one sim, so they stay exact.
 *    Workers claim the sims of a window one at a time, longest first,
 *    so uneven sims still load them evenly;
 *  - fully associative configurations get one stack pass per line
 *    size ("sim.fa" span): the chunk range is cut into contiguous
 *    segments profiled independently and reconciled exactly.
 *
 * When the shard count leaves pool threads idle, a call's passes run
 * side by side as tasks of one fork-join; when it fills the pool they
 * run in turn.
 *
 * Under miss or texel tracing a call replays in stream order so its
 * simulators record their events: the default shard count is one,
 * runCacheSharded replays one CacheSim (fully associative ones too)
 * and classifySharded one MissClassifier. Split set shards, at an
 * explicit count above one, stay silent; stack passes record none.
 *
 * All runners return statistics bit-identical to the plain
 * per-address simulators for every shard count (the decompositions
 * are exact, not approximate; tests/oracle.hh holds those simulators),
 * and peak memory stays bounded regardless of trace length - the
 * billion-access runs of bench/micro_shard.cc never materialize a
 * trace. A set-associative window holds about shards x 2^18 records;
 * its buffers cost about 8 bytes per address, times one plus the
 * number of line sizes.
 *
 * @p shards selects the decomposition width; 0 derives it from the
 * stream (resolveShards). Shard count and thread count are
 * independent: 8 shards on a 1-thread pool produce the same bytes as
 * 8 shards on 8 threads (tests/test_shard_sim.cc sweeps both).
 */

#ifndef TEXCACHE_CORE_SHARD_REPLAY_HH
#define TEXCACHE_CORE_SHARD_REPLAY_HH

#include <algorithm>
#include <vector>

#include "cache/shard_sim.hh"
#include "cache/three_c.hh"
#include "core/scene_layout.hh"
#include "trace/trace_source.hh"

namespace texcache {

/**
 * @p shards, or when it is 0 the default for a stream of @p records:
 * one shard per 2^18 records (a set-pass window's share per shard),
 * at least 1 and at most Sweep::threadCount(). A paper trace takes
 * every worker; a short stream such as a texcached pass takes one.
 * Under miss or texel tracing the default is one.
 */
unsigned resolveShards(unsigned shards, uint64_t records);

/**
 * Stream chunks [@p chunk_begin, @p chunk_end) of @p src, map each
 * span of records through @p layout, and hand the resulting address
 * spans to @p fn(const Addr *, size_t). The address buffer is reused
 * across spans, so memory stays O(kMapChunk) however long the range.
 */
template <typename Fn>
void
replaySegment(const TraceSource &src, const SceneLayout &layout,
              uint64_t chunk_begin, uint64_t chunk_end, Fn &&fn)
{
    std::vector<Addr> buf;
    src.visitChunks(
        chunk_begin, chunk_end, [&](const uint64_t *recs, size_t n) {
            for (size_t i = 0; i < n; i += SceneLayout::kMapChunk) {
                size_t take =
                    std::min(SceneLayout::kMapChunk, n - i);
                layout.mapPacked(recs + i, take, buf);
                fn(static_cast<const Addr *>(buf.data()), buf.size());
            }
        });
}

/** Exact whole-stream stack-distance profile at @p line_bytes. */
ShardedStackProfile profileTraceSharded(const TraceSource &src,
                                        const SceneLayout &layout,
                                        unsigned line_bytes,
                                        unsigned shards = 0);

/** Stats of one configuration. */
CacheStats runCacheSharded(const TraceSource &src,
                           const SceneLayout &layout,
                           const CacheConfig &config,
                           unsigned shards = 0);

/** 3-C breakdown of one configuration; its fully associative twin
 *  of equal size is served by a stack pass. */
MissBreakdown classifySharded(const TraceSource &src,
                              const SceneLayout &layout,
                              const CacheConfig &config,
                              unsigned shards = 0);

/** Fully associative stats for every capacity in @p sizes from one
 *  stack pass. */
std::vector<CacheStats>
runFaSweepSharded(const TraceSource &src, const SceneLayout &layout,
                  unsigned line_bytes,
                  const std::vector<uint64_t> &sizes,
                  unsigned shards = 0);

/**
 * Stats for any mix of configurations, aligned with @p configs: one
 * set pass for the set-associative ones and one stack pass per line
 * size for the fully associative ones.
 */
std::vector<CacheStats>
runCacheSweepSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards = 0);

} // namespace texcache

#endif // TEXCACHE_CORE_SHARD_REPLAY_HH
