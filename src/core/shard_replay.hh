/**
 * @file
 * Sharded, streamed replay of ONE simulation across the sweep pool.
 *
 * The sweep engine (core/sweep.hh) parallelizes across independent
 * sweep points; these runners parallelize *inside* a single point by
 * sharding the simulation itself (cache/shard_sim.hh) and consuming
 * the trace as a stream of chunks (trace/trace_source.hh):
 *
 *  - set-associative configurations: the stream is decoded once, in
 *    windows of chunks mapped in parallel; each address is scattered
 *    by its shard key, (addr >> lineShift) & (K - 1) with K the
 *    smallest power of two >= shards, into per-shard buckets, and
 *    each shard simulates only its own sets' accesses. Configurations
 *    with fewer sets than shards read the whole window in one sim, so
 *    they stay exact. Workers claim the sims of a window one at a
 *    time, longest first, so uneven sims still load them evenly;
 *  - fully associative profiles: the chunk range is cut into
 *    contiguous segments profiled independently and reconciled
 *    exactly.
 *
 * All runners return statistics bit-identical to their serial
 * counterparts in core/experiment.hh for every shard count (the
 * decompositions are exact, not approximate), and peak memory stays
 * bounded regardless of trace length - the billion-access runs of
 * bench/micro_shard.cc never materialize a trace. A set-associative
 * window holds about shards x 2^18 records; its buffers cost about
 * 8 bytes per address, times one plus the number of line sizes.
 *
 * @p shards selects the decomposition width; 0 means the sweep
 * thread count. Shard count and thread count are independent: 8
 * shards on a 1-thread pool produce the same bytes as 8 shards on 8
 * threads (tests/test_shard_sim.cc sweeps both).
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

/** @p shards, or the sweep thread count when @p shards is 0. */
unsigned resolveShards(unsigned shards);

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

/** Sharded profileTrace: exact whole-stream stack profile. */
ShardedStackProfile profileTraceSharded(const TraceSource &src,
                                        const SceneLayout &layout,
                                        unsigned line_bytes,
                                        unsigned shards = 0);

/** Sharded runCache: bit-identical to the serial single replay. */
CacheStats runCacheSharded(const TraceSource &src,
                           const SceneLayout &layout,
                           const CacheConfig &config,
                           unsigned shards = 0);

/** Sharded classifyCache: the same 3-C breakdown, with the FA twin
 *  served by the reconciled stack profile. */
MissBreakdown classifySharded(const TraceSource &src,
                              const SceneLayout &layout,
                              const CacheConfig &config,
                              unsigned shards = 0);

/** Sharded runFaSweep: per-capacity stats from one segmented pass. */
std::vector<CacheStats>
runFaSweepSharded(const TraceSource &src, const SceneLayout &layout,
                  unsigned line_bytes,
                  const std::vector<uint64_t> &sizes,
                  unsigned shards = 0);

/** Sharded runCacheGroup (any mix of configurations). */
std::vector<CacheStats>
runCacheGroupSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards = 0);

/**
 * Sharded runCacheSweep. The sharded engine already collapses every
 * set-associative configuration into one set-partitioned pass and
 * every fully associative line size into one segmented stack pass, so
 * this is the same engine as runCacheGroupSharded except that fully
 * associative results carry evictions == 0, matching runCacheSweep's
 * collapsed passes (see CacheStats::evictions).
 */
std::vector<CacheStats>
runCacheSweepSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards = 0);

} // namespace texcache

#endif // TEXCACHE_CORE_SHARD_REPLAY_HH
