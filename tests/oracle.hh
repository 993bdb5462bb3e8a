/** @file
 * The plain per-address simulators, kept as the oracles of every
 * identity test. Each loop maps a trace through a layout and feeds
 * every address, in stream order, to one unsharded simulator:
 * CacheSim, StackDistProfiler or MissClassifier. The replay engine
 * (core/shard_replay.hh) and the core/experiment.hh runners that
 * forward to it must reproduce these results exactly, evictions
 * included. MtfStack checks the profiler itself, sharing no code
 * with it.
 */

#ifndef TEXCACHE_TESTS_ORACLE_HH
#define TEXCACHE_TESTS_ORACLE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/stack_dist.hh"
#include "cache/three_c.hh"
#include "core/scene_layout.hh"
#include "trace/texel_trace.hh"

namespace texcache {
namespace oracle {

/**
 * A naive LRU stack: a vector of line addresses, newest first, moved
 * to front on every touch. A touch's stack distance is the line's
 * position + 1. O(lines) per touch, so for short streams only; it is
 * the reference for StackDistProfiler and LruStackOracle.
 */
class MtfStack
{
  public:
    /** Touch @p line: its distance, or 0 on a first touch (cold). */
    uint64_t
    touch(uint64_t line)
    {
        auto it = std::find(lines_.begin(), lines_.end(), line);
        if (it == lines_.end()) {
            ++cold_;
            lines_.insert(lines_.begin(), line);
            return 0;
        }
        const uint64_t d = it - lines_.begin() + 1;
        std::rotate(lines_.begin(), it, it + 1);
        if (hist_.size() <= d)
            hist_.resize(d + 1, 0);
        ++hist_[d];
        return d;
    }

    /** Move @p line, which must be present, to the front. */
    void
    promote(uint64_t line)
    {
        auto it = std::find(lines_.begin(), lines_.end(), line);
        ASSERT_NE(it, lines_.end()) << "promote of absent line " << line;
        std::rotate(lines_.begin(), it, it + 1);
    }

    /** hist[d]: touches at distance d (d >= 1). */
    const std::vector<uint64_t> &histogram() const { return hist_; }
    uint64_t cold() const { return cold_; }
    uint64_t lines() const { return lines_.size(); }

    /** The stack LRU first, as StackDistProfiler::stackOrder() lists
     *  it. */
    std::vector<uint64_t>
    lruFirst() const
    {
        return {lines_.rbegin(), lines_.rend()};
    }

  private:
    std::vector<uint64_t> lines_; ///< newest first
    std::vector<uint64_t> hist_;
    uint64_t cold_ = 0;
};

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
