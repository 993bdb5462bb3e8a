/** @file
 * The plain per-address simulators, kept as the oracles of every
 * identity test. Each loop maps a trace through a layout and feeds
 * every address, in stream order, to one unsharded simulator:
 * CacheSim, StackDistProfiler or MissClassifier. The replay engine
 * (core/shard_replay.hh) and the core/experiment.hh runners that
 * forward to it must reproduce these results exactly, evictions
 * included.
 */

#ifndef TEXCACHE_TESTS_ORACLE_HH
#define TEXCACHE_TESTS_ORACLE_HH

#include <algorithm>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/stack_dist.hh"
#include "cache/three_c.hh"
#include "core/scene_layout.hh"
#include "trace/texel_trace.hh"

namespace texcache {
namespace oracle {

/** Feed every address of @p trace, mapped through @p layout, to
 *  @p fn in stream order. */
template <typename Fn>
void
replay(const TexelTrace &trace, const SceneLayout &layout, Fn fn)
{
    std::vector<Addr> buf;
    for (size_t i = 0; i < trace.size(); i += SceneLayout::kMapChunk) {
        size_t end = std::min(trace.size(), i + SceneLayout::kMapChunk);
        layout.mapRange(trace, i, end, buf);
        for (Addr a : buf)
            fn(a);
    }
}

inline StackDistProfiler
profile(const TexelTrace &trace, const SceneLayout &layout,
        unsigned line_bytes)
{
    StackDistProfiler prof(line_bytes);
    replay(trace, layout, [&](Addr a) { prof.access(a); });
    return prof;
}

inline CacheStats
run(const TexelTrace &trace, const SceneLayout &layout,
    const CacheConfig &config)
{
    CacheSim cache(config);
    replay(trace, layout, [&](Addr a) { cache.access(a); });
    return cache.stats();
}

inline MissBreakdown
classify(const TexelTrace &trace, const SceneLayout &layout,
         const CacheConfig &config)
{
    MissClassifier cls(config);
    replay(trace, layout, [&](Addr a) { cls.access(a); });
    return cls.breakdown();
}

/** One run() per configuration, aligned with @p configs. */
inline std::vector<CacheStats>
sweep(const TexelTrace &trace, const SceneLayout &layout,
      const std::vector<CacheConfig> &configs)
{
    std::vector<CacheStats> out;
    for (const CacheConfig &c : configs)
        out.push_back(run(trace, layout, c));
    return out;
}

} // namespace oracle
} // namespace texcache

#endif // TEXCACHE_TESTS_ORACLE_HH
