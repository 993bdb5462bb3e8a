/**
 * @file
 * Stats-tree exports for the cache layer (stats/stats.hh).
 *
 * Each export registers dump-time views - formulas reading the live
 * legacy counters - under a caller-provided group, the gem5 regStats
 * pattern: hot paths keep their plain uint64_t counters, the tree
 * materializes numbers only when dumped. The counter source must
 * outlive every dump of the group.
 */

#ifndef TEXCACHE_CACHE_STATS_EXPORT_HH
#define TEXCACHE_CACHE_STATS_EXPORT_HH

#include "cache/cache_sim.hh"
#include "cache/hierarchy.hh"
#include "stats/stats.hh"

namespace texcache {

/**
 * Register one cache's hit/miss/eviction counters plus derived rate
 * and bandwidth formulas under @p g. @p line_bytes sizes the
 * bytes_fetched formula (the cache's configured line size).
 */
void exportCacheStats(stats::Group &g, const CacheStats &s,
                      unsigned line_bytes);

/**
 * Register a two-level hierarchy: per-L1 subgroups ("l1.<i>.misses"),
 * aggregate L1 formulas, the shared L2 and memory-side bandwidth.
 */
void exportHierarchyStats(stats::Group &g, const TwoLevelCache &h);

} // namespace texcache

#endif // TEXCACHE_CACHE_STATS_EXPORT_HH
