/**
 * @file
 * Sharding one cache simulation across workers, bit-exactly.
 *
 * Two decompositions, matched to the two simulator families
 * (DESIGN.md section 16):
 *
 *  - Set partitioning (SetShardSim), for set-associative caches. LRU
 *    within a set depends only on the relative order of that set's own
 *    accesses, and a line maps to exactly one set, so giving each
 *    shard an exclusive subset of sets and only those sets' accesses,
 *    in stream order, yields per-shard statistics whose field-wise sum
 *    equals the serial run exactly - including evictions and cold
 *    misses. The stream is decoded once and scattered by a shard key
 *    into per-shard buckets, so each shard touches 1/S of it.
 *    Configurations that share a line size and a set count also share
 *    one move-to-front stack per set, which yields every way count at
 *    once.
 *
 *  - Time partitioning (StackSegmentPass + mergeStackShards), for the
 *    fully associative stack-distance profile, in the style of PARDA
 *    [Niu et al., IPDPS'12]. Each worker profiles one contiguous
 *    segment of the stream independently: distances of accesses whose
 *    previous touch lies inside the segment are already globally
 *    correct; the rest - each segment's locally-cold accesses, which
 *    are exactly its first touches in order - are resolved by a
 *    sequential reconciliation pass against a global LRU-stack oracle.
 *    Touching the first-touch log in order places every distinct line
 *    the segment saw earlier above the queried line, so the oracle
 *    distance equals |lines seen in earlier segments since the
 *    previous touch  UNION  lines seen locally before this access| + 1
 *    - the exact global stack distance. A final promote() fixup in the
 *    segment's last-access order (LRU first) restores the true global
 *    stack before the next segment merges. The merged histogram, cold
 *    count and access count are bucket-identical to a serial
 *    StackDistProfiler pass.
 *
 * Reconciliation cost is O(distinct lines per segment), not O(segment
 * accesses), so the serial fraction stays small for texture streams.
 */

#ifndef TEXCACHE_CACHE_SHARD_SIM_HH
#define TEXCACHE_CACHE_SHARD_SIM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/line_table.hh"
#include "cache/stack_dist.hh"

namespace texcache {

/**
 * A simulation of a list of set-associative configurations whose sets
 * are split into @p shards shards, fed by decode-once scatter.
 *
 * Configurations that share a line size and a set count form a group
 * and share one stack sim. With the set index fixed, every way count
 * is LRU over the same per-set stream, so inclusion holds set by set
 * (Mattson et al. 1970; Hill and Smith, IEEE TC 1989): a set of a
 * w-way cache holds the w most recent distinct lines of that set. One
 * move-to-front stack per set, as deep as the group's widest member,
 * therefore holds every member's contents at once, and a histogram of
 * the stack position each access hits at gives every member's stats:
 * hits at w ways are hist[0, w), misses are accesses - hits, cold
 * misses are the distinct lines (a first touch misses at every depth,
 * so the first-touch set is probed only on a miss at full depth), and
 * evictions are misses - the sum over the sets of min(w, lines the
 * set holds), since a flush-free set fills one way per miss until it
 * is full.
 *
 * The stream arrives as spans (one per trace chunk). scatter() splits
 * a span's addresses, once per distinct line size, into K buckets by
 * the shard key (addr >> lineShift) & (K - 1), where K is the smallest
 * power of two >= shards; bucket b belongs to shard b % shards. A
 * group with at least K sets (that is, at least as many sets as
 * shards) is split across every shard: its set count is a multiple of
 * K, so the key is a function of its set index and every set falls in
 * one bucket. It gets one sim per shard, and shard k's sim sees only
 * the buckets k owns. A group with fewer sets than shards gets one sim
 * that reads whole spans; its statistics count as shard 0's.
 *
 * Every sim owns its state, so the sims of a window may replay in any
 * order and on any worker, as long as each sees the windows in stream
 * order. Within a span a sim's buckets may be fed in any order, since
 * they hold disjoint sets. No sim records trace events.
 */
class SetShardSim
{
  public:
    /** One span of the stream and its scatter; reused across spans
     *  so the buffers keep their capacity. */
    struct Span
    {
        std::vector<Addr> addrs; ///< the span, in order
        /** Per scattered line size, the span's addresses stably sorted
         *  by key: line size l occupies [l * n, (l + 1) * n). */
        std::vector<Addr> byKey;
        /** Bucket b of line size l is byKey[l * n + start[l * (K + 1)
         *  + b], l * n + start[l * (K + 1) + b + 1]). */
        std::vector<size_t> start;
        std::vector<size_t> next; ///< scatter() scratch
    };

    /** @p shards >= 1; shard count and thread count are independent.
     *  A fully associative configuration counts as one set as deep as
     *  its lines, exact but slow; the replay engine serves those by
     *  stack passes instead. */
    SetShardSim(const std::vector<CacheConfig> &configs, unsigned shards);

    /** Fill @p span.byKey and @p span.start from @p span.addrs.
     *  Concurrent calls on distinct spans are safe. */
    void scatter(Span &span) const;

    /** Number of sims. Their indices run longest first: by the share
     *  of the buckets a sim reads times its stack depth (whole-span
     *  sims read all K), then by fewer sets and smaller lines. The
     *  order depends only on the groups, not on the configurations'
     *  positions in the list. */
    size_t sims() const { return sims_.size(); }

    /** Feed sim @p sim its part of @p spans[0, @p n), in stream order.
     *  Calls for distinct sims may run concurrently. */
    void replay(size_t sim, const Span *spans, size_t n);

    /** Shard @p shard's statistics per configuration; zero for the
     *  configurations it holds no sim of. */
    std::vector<CacheStats> shardStats(unsigned shard) const;

    /** Per-configuration statistics summed field-wise over all
     *  shards, aligned with the constructor's list. Exact because every
     *  set (and hence every line and every eviction) is owned by
     *  exactly one shard. */
    std::vector<CacheStats> stats() const;

  private:
    static constexpr size_t kWholeSpans = ~size_t(0);
    /** Pads a stack below its fill; never a line address. */
    static constexpr uint64_t kEmpty = ~uint64_t(0);

    /** Configurations sharing a line size and a set count. */
    struct Group
    {
        unsigned lineShift;
        uint64_t sets;
        unsigned depth;              ///< ways of the widest member
        std::vector<size_t> members; ///< positions in the list
    };

    /** One group's stacks for the sets of one shard. */
    struct StackSim
    {
        size_t group;
        size_t lineKey; ///< index into lineShifts_, or kWholeSpans
        unsigned shard; ///< owner of the buckets it reads
        /** sets x depth line addresses, most recent first, kEmpty
         *  below each set's fill. */
        std::vector<uint64_t> stacks;
        std::vector<uint64_t> hist; ///< hits by stack position
        uint64_t accesses = 0;
        LineSet touched; ///< every line seen
    };

    void access(StackSim &sim, const Addr *a, size_t n) const;
    void addStats(const StackSim &sim, std::vector<CacheStats> &out) const;

    std::vector<CacheConfig> configs_;
    std::vector<Group> groups_;
    std::vector<StackSim> sims_;       ///< longest first
    std::vector<unsigned> lineShifts_; ///< scattered line sizes
    unsigned shards_;
    unsigned keys_; ///< K: buckets per line size
};

/**
 * What one segment's stack-distance pass hands to the merger. Plain
 * data so sweep workers can return it by value (and the sweep pool's
 * result slots can default-construct it).
 */
struct StackShardPass
{
    /** Accesses profiled in this segment. */
    uint64_t accesses = 0;
    /** Local distance histogram (locally-cold accesses excluded). */
    std::vector<uint64_t> hist;
    /** Locally-cold lines in first-touch order - the accesses whose
     *  distances the reconciliation pass resolves. */
    std::vector<uint64_t> firstTouch;
    /** Every distinct line the segment saw, LRU first / MRU last. */
    std::vector<uint64_t> finalOrder;
};

/** Profiles one contiguous stream segment for later reconciliation. */
class StackSegmentPass
{
  public:
    explicit StackSegmentPass(unsigned line_bytes);
    StackSegmentPass(const StackSegmentPass &) = delete;
    StackSegmentPass &operator=(const StackSegmentPass &) = delete;

    void accessRange(const Addr *a, size_t n) { prof_.accessRange(a, n); }

    /** Extract the pass; the object must not be fed afterwards. */
    StackShardPass finish();

  private:
    StackDistProfiler prof_;
    std::vector<uint64_t> firstTouch_;
};

/**
 * Exact global LRU stack over line addresses, driven by the
 * reconciliation pass: touch() computes a global stack distance and
 * promotes; promote() only reorders. It is the profiler's
 * RecencyIndex alone, without the top-of-stack array or the histogram
 * (reconciliation touches each distinct line once per segment, so
 * there is no hot small working set to exploit).
 */
class LruStackOracle
{
  public:
    /**
     * Record a touch of @p line: returns its stack distance (>= 1), or
     * 0 when the line was never seen (globally cold; inserted at the
     * top of the stack).
     */
    uint64_t touch(uint64_t line);

    /** Move @p line to the top of the stack; it must be present. */
    void promote(uint64_t line);

    uint64_t lines() const { return index_.size(); }

  private:
    RecencyIndex index_;
};

/**
 * The merged whole-trace stack profile: same queries as
 * StackDistProfiler, reassembled from segment passes.
 */
struct ShardedStackProfile
{
    unsigned lineShift = 0;
    uint64_t accesses = 0;
    uint64_t cold = 0;
    /** hist[d] = accesses with global stack distance d (d >= 1). */
    std::vector<uint64_t> hist;

    uint64_t coldMisses() const { return cold; }

    uint64_t
    misses(uint64_t size_bytes) const
    {
        uint64_t capacity = size_bytes >> lineShift;
        uint64_t m = cold;
        for (uint64_t d = capacity + 1; d < hist.size(); ++d)
            m += hist[d];
        return m;
    }

    double
    missRate(uint64_t size_bytes) const
    {
        return accesses
                   ? static_cast<double>(misses(size_bytes)) / accesses
                   : 0.0;
    }

    const std::vector<uint64_t> &histogram() const { return hist; }
};

/**
 * Reconcile segment passes (in stream order) into the exact
 * whole-trace profile. @p line_bytes must match the passes'.
 */
ShardedStackProfile
mergeStackShards(const std::vector<StackShardPass> &passes,
                 unsigned line_bytes);

} // namespace texcache

#endif // TEXCACHE_CACHE_SHARD_SIM_HH
