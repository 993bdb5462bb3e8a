/**
 * @file
 * 3-C miss classification (cold / capacity / conflict).
 *
 * The paper attributes miss-rate differences between set-associative and
 * fully associative caches of equal size to conflict misses (sections
 * 5.3.3, 6.2). This helper runs both organizations side by side over the
 * same address stream and splits the set-associative cache's misses:
 *
 *   cold     = first touch of a line address,
 *   conflict = set-associative misses - fully-associative misses,
 *   capacity = the remainder.
 */

#ifndef TEXCACHE_CACHE_THREE_C_HH
#define TEXCACHE_CACHE_THREE_C_HH

#include <algorithm>

#include "cache/cache_sim.hh"
#include "tracing/tracing.hh"

namespace texcache {

/** Breakdown of a set-associative cache's misses. */
struct MissBreakdown
{
    uint64_t accesses = 0;
    uint64_t misses = 0;   ///< total misses of the set-associative cache
    uint64_t cold = 0;
    uint64_t capacity = 0;
    uint64_t conflict = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }
};

/**
 * The 3-C split of a set-associative cache's misses, from its stats
 * @p sa and those of its fully associative twin @p fa: an LRU cache of
 * equal size and line size that saw the same stream.
 */
inline MissBreakdown
classifyMisses(const CacheStats &sa, const CacheStats &fa)
{
    MissBreakdown b;
    b.accesses = sa.accesses;
    b.misses = sa.misses;
    b.cold = sa.coldMisses;
    // An FA cache can in rare corner cases miss *more* than a
    // set-associative one (LRU is not optimal); clamp at zero as the
    // standard 3-C model does.
    b.conflict = sa.misses > fa.misses ? sa.misses - fa.misses : 0;
    uint64_t fa_noncold = fa.misses - fa.coldMisses;
    b.capacity = std::min(fa_noncold, b.misses - b.cold - b.conflict);
    return b;
}

/** Runs a set-associative cache and an FA twin over the same stream. */
class MissClassifier
{
  public:
    explicit MissClassifier(const CacheConfig &config)
        : sa_(config), fa_(config.sizeBytes, config.lineBytes)
    {
        // The twins stay silent; this classifier emits one refined
        // event per set-associative miss with the exact 3C class the
        // FA twin resolves (the aggregate breakdown() cannot see).
        sa_.setTraceTag(tracing::kTagSilent);
        fa_.setTraceTag(tracing::kTagSilent);
    }

    void
    access(Addr addr)
    {
        uint64_t cold_before = sa_.stats().coldMisses;
        bool sa_hit = sa_.access(addr);
        bool fa_hit = fa_.access(addr);
        if (!sa_hit &&
            tracing::enabled(tracing::kMisses | tracing::kTexels)) {
            tracing::MissClass cls;
            if (sa_.stats().coldMisses != cold_before)
                cls = tracing::MissClass::Cold;
            else if (fa_hit)
                cls = tracing::MissClass::Conflict;
            else
                cls = tracing::MissClass::Capacity;
            tracing::cacheMiss(addr, cls, tracing::kTagClassified);
        }
    }

    /** Final classification (call after the stream is done). */
    MissBreakdown
    breakdown() const
    {
        return classifyMisses(sa_.stats(), fa_.stats());
    }

    const CacheStats &setAssocStats() const { return sa_.stats(); }
    const CacheStats &fullyAssocStats() const { return fa_.stats(); }

  private:
    CacheSim sa_;
    FullyAssocLru fa_;
};

} // namespace texcache

#endif // TEXCACHE_CACHE_THREE_C_HH
