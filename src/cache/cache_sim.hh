/**
 * @file
 * Trace-driven texture cache simulator (paper section 4.1, third
 * component).
 *
 * Models a single-level cache parameterized by total size, line size and
 * associativity with LRU replacement, fed one byte-address at a time.
 * Statistics distinguish cold misses (first touch of a line address
 * anywhere in the run) from the rest, which supports the paper's 3-C
 * style analysis when combined with a fully associative run of equal
 * size (see MissClassifier in three_c.hh).
 */

#ifndef TEXCACHE_CACHE_CACHE_SIM_HH
#define TEXCACHE_CACHE_CACHE_SIM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/line_table.hh"
#include "common/bits.hh"
#include "layout/address_space.hh"

namespace texcache {

/** Organization of a cache: size, line size, associativity. */
struct CacheConfig
{
    uint64_t sizeBytes = 32 * 1024;
    unsigned lineBytes = 32;
    /** Ways per set; kFullyAssoc makes the cache fully associative. */
    unsigned assoc = 2;

    static constexpr unsigned kFullyAssoc = 0;

    /** Number of lines in the cache. */
    uint64_t numLines() const { return sizeBytes / lineBytes; }

    /** Number of sets (1 when fully associative). */
    uint64_t
    numSets() const
    {
        return assoc == kFullyAssoc ? 1 : sizeBytes / lineBytes / assoc;
    }

    /** Short display string like "32KB/64B/2way". */
    std::string str() const;

    /** fatal()s unless this is a cache the simulators model: powers
     *  of two, a line no larger than the cache, and a power-of-two
     *  number of whole sets. */
    void validate() const;
};

/** Hit/miss counters accumulated over a run. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t coldMisses = 0;
    /** Valid lines displaced by fills, as CacheSim counts them. Every
     *  runner reports this meaning: for a fully associative
     *  configuration read from a stack-distance profile it is derived
     *  as misses - min(capacity in lines, misses), since a flush-free
     *  LRU cache fills one line per miss until full. */
    uint64_t evictions = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** Bytes fetched from memory given a line size. */
    uint64_t
    bytesFetched(unsigned line_bytes) const
    {
        return misses * line_bytes;
    }
};

class FullyAssocLru;

/**
 * Set-associative LRU cache. Fully associative configurations with
 * more than 64 lines delegate internally to the O(1) FullyAssocLru
 * path, so callers can pass kFullyAssoc without picking the class by
 * hand; smaller ones use the O(ways) scan, which beats the hash map
 * at that scale.
 */
class CacheSim
{
  public:
    explicit CacheSim(const CacheConfig &config);
    ~CacheSim();
    CacheSim(CacheSim &&) noexcept;
    CacheSim &operator=(CacheSim &&) noexcept;

    /** Simulate one byte access; returns true on hit. */
    bool access(Addr addr);

    /** Reset contents and statistics. */
    void reset();

    /**
     * Invalidate all contents but keep statistics and cold-miss
     * tracking - the "flush when the textures change" operation the
     * paper notes replaces coherence for read-only texture data
     * (section 3.2). Subsequent re-fetches count as (non-cold) misses.
     */
    void flush();

    const CacheStats &stats() const;
    const CacheConfig &config() const { return config_; }

    /**
     * Tag this simulator's trace events (tracing/trace_format.hh:
     * kTagStandalone/kTagL1/kTagL2; kTagSilent suppresses them).
     * Purely observational - simulation results are unaffected.
     */
    void setTraceTag(uint16_t tag);

  private:
    struct Way
    {
        uint64_t tag = kInvalid;
        uint64_t lastUse = 0;
    };
    static constexpr uint64_t kInvalid = ~0ULL;

    CacheConfig config_;
    unsigned lineShift_;
    uint64_t setMask_;
    unsigned ways_;
    std::vector<Way> table_; ///< numSets * ways_, row-major by set
    LineSet touched_;        ///< line addrs ever seen
    uint64_t tick_ = 0;
    uint16_t traceTag_ = 0;  ///< source tag on emitted trace events
    CacheStats stats_;
    /** Large fully associative configs delegate here (O(1) LRU). */
    std::unique_ptr<FullyAssocLru> fa_;
};

/** Fully associative LRU cache with O(1) accesses (hash map + list). */
class FullyAssocLru
{
  public:
    FullyAssocLru(uint64_t size_bytes, unsigned line_bytes);

    /** Simulate one byte access; returns true on hit. */
    bool access(Addr addr);

    void reset();

    /** Invalidate contents, keep statistics (see CacheSim::flush). */
    void flush();

    const CacheStats &stats() const { return stats_; }

    /** Tag emitted trace events (see CacheSim::setTraceTag). */
    void setTraceTag(uint16_t tag) { traceTag_ = tag; }

  private:
    // Intrusive doubly linked list over a node pool, most recent first.
    struct Node
    {
        uint64_t line;
        uint32_t prev;
        uint32_t next;
    };
    static constexpr uint32_t kNil = ~0u;

    void unlink(uint32_t n);
    void pushFront(uint32_t n);

    unsigned lineShift_;
    uint64_t capacity_; ///< lines
    std::vector<Node> pool_;
    std::vector<uint32_t> freeList_;
    std::unordered_map<uint64_t, uint32_t> map_;
    LineSet touched_;
    uint32_t head_ = kNil;
    uint32_t tail_ = kNil;
    uint16_t traceTag_ = 0;
    CacheStats stats_;
};

} // namespace texcache

#endif // TEXCACHE_CACHE_CACHE_SIM_HH
