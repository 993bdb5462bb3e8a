/**
 * @file
 * Single-pass multi-configuration cache simulation.
 *
 * Every figure of the paper is a sweep: one address stream replayed
 * under many cache organizations. Replaying once per organization pays
 * the trace walk and the address mapping N times. Two collapses remove
 * almost all of that (DESIGN.md section 8):
 *
 *  - FaCapacitySweep: Mattson's inclusion property - an LRU stack of
 *    capacity C always holds a superset of the lines a smaller LRU
 *    stack holds - means one stack-distance pass yields the *exact*
 *    miss count of a fully associative LRU cache at every capacity
 *    simultaneously.
 *
 *  - GroupSim: set-associative caches do not obey inclusion across
 *    set counts (a different index function reshuffles which lines
 *    conflict), so each organization still needs its own simulator
 *    state; but all of them can consume one shared pass over the
 *    stream, paying trace decode + layout mapping once for the whole
 *    (size, line) family.
 *
 * Both consume plain address spans so they stay below core/ in the
 * layering; core/experiment.cc glues them to traces and layouts.
 */

#ifndef TEXCACHE_CACHE_MULTI_SIM_HH
#define TEXCACHE_CACHE_MULTI_SIM_HH

#include <cstddef>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/stack_dist.hh"

namespace texcache {

/**
 * Exact fully-associative LRU statistics for an arbitrary set of
 * capacities from one pass over the address stream.
 */
class FaCapacitySweep
{
  public:
    /** @p sizes are capacities in bytes; any order, need not be sorted. */
    FaCapacitySweep(unsigned line_bytes, std::vector<uint64_t> sizes);

    void access(Addr a) { prof_.access(a); }

    /** Feed a contiguous span of addresses (the mapRange fast path). */
    void
    accessRange(const Addr *a, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            prof_.access(a[i]);
    }

    /**
     * Statistics per requested capacity, aligned with the constructor's
     * size list. Identical to what a FullyAssocLru of that capacity
     * would have returned after the same stream.
     */
    std::vector<CacheStats> stats() const;

    /** The underlying profiler (for working-set analysis). */
    const StackDistProfiler &profiler() const { return prof_; }

  private:
    std::vector<uint64_t> sizes_;
    StackDistProfiler prof_;
};

/**
 * An arbitrary group of cache organizations driven by one shared
 * address stream - one trace decode and one layout mapping amortized
 * over every member.
 */
class GroupSim
{
  public:
    explicit GroupSim(const std::vector<CacheConfig> &configs);

    void
    access(Addr a)
    {
        for (CacheSim &sim : sims_)
            sim.access(a);
    }

    /** Feed a contiguous span of addresses to every member through
     *  the batched CacheSim::accessRange kernel. */
    void
    accessRange(const Addr *a, size_t n)
    {
        // Iterate sims outermost: each simulator's tables stay hot in
        // cache while it consumes the whole span.
        for (CacheSim &sim : sims_)
            sim.accessRange(a, n);
    }

    /** Statistics aligned with the constructor's config list. */
    std::vector<CacheStats> stats() const;

  private:
    std::vector<CacheSim> sims_;
};

} // namespace texcache

#endif // TEXCACHE_CACHE_MULTI_SIM_HH
