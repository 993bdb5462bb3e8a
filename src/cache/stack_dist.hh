/**
 * @file
 * Mattson stack-distance profiler.
 *
 * For an LRU-managed fully associative cache, an access hits iff its
 * reuse (stack) distance - the number of distinct lines touched since the
 * previous access to the same line - is at most the cache's line
 * capacity. Profiling the distance histogram in one pass therefore
 * yields the miss-rate-versus-cache-size curve for *every* cache size at
 * once, which is how the working-set figures of the paper (5.2, 5.6,
 * 6.2, ...) are regenerated efficiently.
 *
 * The profiler holds the LRU stack in two tiers: its kTopK newest lines
 * in a small array, and every older line in a RecencyIndex, which
 * counts the lines newer than a given one with a Fenwick tree over
 * timestamps. The index is also the global stack of the sharded
 * profiler's merge (cache/shard_sim.hh).
 */

#ifndef TEXCACHE_CACHE_STACK_DIST_HH
#define TEXCACHE_CACHE_STACK_DIST_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/line_table.hh"
#include "layout/address_space.hh"

namespace texcache {

/**
 * An LRU order of line addresses that answers "how many lines are
 * newer than this one" in O(log n).
 *
 * Every held line owns one timestamp. Three structures key on it: a
 * line -> timestamp map, 32-bit Fenwick counts over the timestamps,
 * and a timestamp -> line array whose gaps are the timestamps of lines
 * taken out. push() hands out the next timestamp; when none is left,
 * a renumber slides the held lines down to [0, size()) in one scan of
 * the array, keeping their order, and rebuilds the counts in one pass
 * into a power-of-two capacity of at least 4x the lines held. That is
 * the only rebuild, and nothing is sorted.
 *
 * A removed line keeps its map slot, holding a stale timestamp, until
 * it is pushed again; callers look up only lines that are held or
 * were never pushed.
 */
class RecencyIndex
{
  public:
    /** @p line's map slot, or nullptr if it was never pushed. */
    uint64_t *find(uint64_t line) { return time_.find(line); }

    /** Held lines newer than the held line whose slot is @p slot. */
    uint64_t
    newerThan(const uint64_t *slot) const
    {
        uint64_t older = 0; // held timestamps <= *slot
        for (uint64_t i = *slot + 1; i > 0; i &= i - 1)
            older += tree_[i - 1];
        return held_ - older;
    }

    /** Take the held line whose slot is @p slot out of the order. */
    void
    remove(const uint64_t *slot)
    {
        lineAt_[*slot] = kGone;
        for (uint64_t i = *slot + 1; i <= tree_.size(); i += i & (~i + 1))
            --tree_[i - 1];
        --held_;
    }

    /** Make @p line, which is not held, the newest line. @p slot is
     *  its map slot from find(), or nullptr if it was never pushed. */
    void push(uint64_t line, uint64_t *slot);
    void push(uint64_t line) { push(line, find(line)); }

    /** Lines held. */
    uint64_t size() const { return held_; }

    /** Renumbers so far; tests check that a stream forced some. */
    uint64_t renumbers() const { return renumbers_; }

    /** Visit the held lines, oldest first. */
    template <typename Fn>
    void
    forEachOldestFirst(Fn &&fn) const
    {
        for (uint64_t t = 0; t < now_; ++t)
            if (lineAt_[t] != kGone)
                fn(lineAt_[t]);
    }

  private:
    /** Marks a timestamp no held line owns; never a line address. */
    static constexpr uint64_t kGone = ~uint64_t(0);
    static constexpr uint64_t kMinCapacity = 1024;

    void renumber();

    LineMap time_;                 ///< line -> timestamp
    std::vector<uint32_t> tree_;   ///< Fenwick counts over timestamps
    std::vector<uint64_t> lineAt_; ///< timestamp -> line, or kGone
    uint64_t now_ = 0;             ///< next timestamp
    uint64_t held_ = 0;
    uint64_t renumbers_ = 0;
};

/** One-pass LRU stack-distance profiler at line granularity. */
class StackDistProfiler
{
  public:
    explicit StackDistProfiler(unsigned line_bytes);

    /** Record one byte access. */
    void access(Addr addr) { accessRange(&addr, 1); }

    /** Record @p n byte accesses, in order. */
    void accessRange(const Addr *a, size_t n);

    /** Total accesses recorded. */
    uint64_t accesses() const { return accesses_; }

    /** Cold (first-touch) accesses - misses at any cache size. */
    uint64_t coldMisses() const { return cold_; }

    /**
     * Misses a fully associative LRU cache of @p size_bytes would take
     * on the recorded trace (cold + reuse distances > capacity).
     */
    uint64_t misses(uint64_t size_bytes) const;

    /** Miss rate at @p size_bytes. */
    double
    missRate(uint64_t size_bytes) const
    {
        return accesses_
                   ? static_cast<double>(misses(size_bytes)) / accesses_
                   : 0.0;
    }

    /** The raw histogram: hist[d] = accesses with stack distance d
     *  (d >= 1; index 0 unused). */
    const std::vector<uint64_t> &histogram() const { return hist_; }

    /**
     * Record every cold (first-touch) line address into @p log, in
     * touch order. The sharded profiler (cache/shard_sim.hh) replays
     * exactly these accesses against a global LRU-stack oracle to
     * reconcile per-segment passes into the exact whole-trace
     * histogram. Pass nullptr to stop logging; @p log must outlive
     * the accesses recorded while set.
     */
    void setFirstTouchLog(std::vector<uint64_t> *log)
    {
        firstTouchLog_ = log;
    }

    /**
     * Every distinct line seen, ordered by last access (LRU first,
     * MRU last) - the profiler's LRU stack at this instant. Used by
     * segment reconciliation to re-establish the true global recency
     * order after a segment's pass merges (see shard_sim.cc).
     */
    std::vector<uint64_t> stackOrder() const;

    /** Renumbers of the index so far. */
    uint64_t renumbers() const { return index_.renumbers(); }

  private:
    static constexpr size_t kTopK = 8;
    /** Pads the top below its fill; never a line address. */
    static constexpr uint64_t kNoLine = ~uint64_t(0);

    void belowTop(uint64_t line, uint64_t demoted);

    unsigned lineShift_;
    uint64_t accesses_ = 0;
    uint64_t cold_ = 0;
    std::vector<uint64_t> hist_;

    /**
     * The kTopK newest lines, newest first, kNoLine below the fill.
     * Texel streams (bilinear/trilinear fragments re-touch 2-4 lines)
     * resolve most accesses here. A line enters the index only when it
     * is demoted off the end of a full array, as the index's newest
     * line, so every indexed line is older than every line here.
     */
    std::array<uint64_t, kTopK> top_;

    std::vector<uint64_t> *firstTouchLog_ = nullptr;

    RecencyIndex index_; ///< every line seen but not in top_
};

} // namespace texcache

#endif // TEXCACHE_CACHE_STACK_DIST_HH
