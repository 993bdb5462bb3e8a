#include "cache/stats_export.hh"

namespace texcache {

void
exportCacheStats(stats::Group &g, const CacheStats &s,
                 unsigned line_bytes)
{
    g.formula("accesses", "total accesses",
              [&s] { return double(s.accesses); });
    g.formula("hits", "accesses served without a fill",
              [&s] { return double(s.accesses - s.misses); });
    g.formula("misses", "accesses that filled a line",
              [&s] { return double(s.misses); });
    g.formula("cold_misses", "first touch of a line address",
              [&s] { return double(s.coldMisses); });
    g.formula("evictions", "valid lines displaced by fills",
              [&s] { return double(s.evictions); });
    g.formula("miss_rate", "misses / accesses",
              [&s] { return s.missRate(); });
    g.formula("bytes_fetched", "fill traffic in bytes",
              [&s, line_bytes] {
                  return double(s.bytesFetched(line_bytes));
              });
}

void
exportHierarchyStats(stats::Group &g, const TwoLevelCache &h)
{
    stats::Group &l1 = g.group("l1");
    l1.formula("accesses", "accesses summed over all L1s",
               [&h] { return double(h.totalAccesses()); });
    l1.formula("misses", "misses summed over all L1s", [&h] {
        uint64_t m = 0;
        for (unsigned i = 0; i < h.numL1(); ++i)
            m += h.l1Stats(i).misses;
        return double(m);
    });
    l1.formula("miss_rate", "aggregate L1 miss rate", [&h] {
        uint64_t a = h.totalAccesses(), m = 0;
        for (unsigned i = 0; i < h.numL1(); ++i)
            m += h.l1Stats(i).misses;
        return a ? double(m) / double(a) : 0.0;
    });
    for (unsigned i = 0; i < h.numL1(); ++i)
        exportCacheStats(l1.group(std::to_string(i)), h.l1Stats(i),
                         h.l1Config().lineBytes);

    exportCacheStats(g.group("l2"), h.l2Stats(),
                     h.l2Config().lineBytes);
    g.formula("memory_fills", "lines filled from memory",
              [&h] { return double(h.memoryFills()); });
    g.formula("memory_bytes", "bytes fetched from memory",
              [&h] { return double(h.memoryBytes()); });
}

} // namespace texcache
