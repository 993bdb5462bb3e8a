/**
 * @file
 * Locality statistics over texel traces (paper sections 3.1.2 and 5.2.3).
 *
 *  - accesses per unique texel, split by filter role (the paper reports
 *    ~4 for the trilinear lower level, ~14-16 for the upper level, and
 *    scene-dependent values around 18 for bilinear magnification);
 *  - texture runlengths: the average run of consecutive accesses to the
 *    same texture (hundreds of thousands in the paper, showing the
 *    working set holds one texture at a time);
 *  - texture repetition: how often a texel is reused because texture
 *    coordinates wrap (fed by the renderer, which sees pre-wrap
 *    coordinates).
 */

#ifndef TEXCACHE_TRACE_TRACE_STATS_HH
#define TEXCACHE_TRACE_TRACE_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/texel_trace.hh"

namespace texcache {

/** Accesses-per-unique-texel for one filter role. */
struct PerTexelStats
{
    uint64_t accesses = 0;
    uint64_t uniqueTexels = 0;

    double
    accessesPerTexel() const
    {
        return uniqueTexels
                   ? static_cast<double>(accesses) / uniqueTexels
                   : 0.0;
    }
};

/** Result of analyzing a trace. */
struct TraceStats
{
    PerTexelStats bilinear;
    PerTexelStats trilinearLower;
    PerTexelStats trilinearUpper;
    PerTexelStats nearest;

    uint64_t accesses = 0;
    uint64_t textureRuns = 0;

    /** Mean length of a run of accesses to one texture (section 5.2.3). */
    double
    averageRunlength() const
    {
        return textureRuns ? static_cast<double>(accesses) / textureRuns
                           : 0.0;
    }
};

/** Single pass over a trace computing TraceStats. */
TraceStats analyzeTrace(const TexelTrace &trace);

/**
 * Set of 64-bit keys in one flat open-addressing table: linear
 * probing over a power-of-two capacity, grown before it is more than
 * half full. A zero slot is empty, so key 0 - a real repetition key:
 * texture 0, level 0, texel (0, 0) - lives in a flag of its own.
 */
class FlatKeySet
{
  public:
    /** Add @p key; true when it was not yet in the set. */
    bool
    insert(uint64_t key)
    {
        if (key == 0) {
            bool added = !hasZero_;
            hasZero_ = true;
            return added;
        }
        if (2 * (used_ + 1) > slots_.size())
            rehash(capacityFor(used_ + 1));
        return place(key);
    }

    /** Size the table so that @p n more distinct keys never grow it. */
    void
    reserve(size_t n)
    {
        size_t cap = capacityFor(used_ + n);
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Move into the smallest table that holds the current keys
     *  (after a reserve() sized for keys that turned out to repeat). */
    void
    shrinkToFit()
    {
        size_t cap = used_ ? capacityFor(used_) : 0;
        if (cap < slots_.size())
            rehash(cap);
    }

    size_t size() const { return used_ + (hasZero_ ? 1 : 0); }

  private:
    static size_t capacityFor(size_t n);
    bool place(uint64_t key);
    void rehash(size_t cap);

    std::vector<uint64_t> slots_; ///< 0 = empty
    size_t used_ = 0;             ///< nonzero keys in slots_
    bool hasZero_ = false;
};

/** The distinct-key counts of a RepetitionCounter: all a render keeps
 *  of it once its key sets are done with. */
struct RepetitionCounts
{
    uint64_t unwrapped = 0;
    uint64_t wrapped = 0;

    uint64_t uniqueUnwrapped() const { return unwrapped; }
    uint64_t uniqueWrapped() const { return wrapped; }

    double
    repetitionFactor() const
    {
        return wrapped ? static_cast<double>(unwrapped) /
                             static_cast<double>(wrapped)
                       : 0.0;
    }
};

/**
 * Texture-repetition counter (section 3.1.2). The renderer feeds one
 * sample per fragment: the *unwrapped* integer texel coordinate of the
 * filter footprint alongside its wrapped counterpart. The repetition
 * factor is (# distinct unwrapped texels) / (# distinct wrapped texels):
 * 1.0 when no texture repeats, ~3 for heavily tiled brick walls.
 */
class RepetitionCounter
{
  public:
    /** One fragment's pair of set keys. */
    struct KeyPair
    {
        uint64_t unwrapped;
        uint64_t wrapped;
    };

    /** The set keys record() would insert for this footprint anchor. */
    static KeyPair
    keys(uint16_t tex, uint16_t level, int32_t unwrapped_u,
         int32_t unwrapped_v, uint16_t wrapped_u, uint16_t wrapped_v)
    {
        uint64_t key_base = (static_cast<uint64_t>(tex) << 48) |
                            (static_cast<uint64_t>(level) << 40);
        uint64_t uw = key_base |
                      (static_cast<uint64_t>(static_cast<uint32_t>(
                           unwrapped_u)) &
                       0xfffff) |
                      ((static_cast<uint64_t>(static_cast<uint32_t>(
                            unwrapped_v)) &
                        0xfffff)
                       << 20);
        uint64_t wr = key_base | wrapped_u |
                      (static_cast<uint64_t>(wrapped_v) << 20);
        return {uw, wr};
    }

    /**
     * The sets are sharded by key hash so the tile render engine's
     * merge can union different shards on different workers
     * concurrently (each shard is owned by exactly one worker, and a
     * set union is order-free). Serial users never notice: record()
     * and insert() route keys themselves.
     */
    static constexpr unsigned kShards = 16;

    /** Owning shard of a key (top bits of a Fibonacci hash). */
    static unsigned
    shardOf(uint64_t key)
    {
        return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >>
                                     60);
    }

    /**
     * Keys buffered by one tile-render work unit, bucketed by shard. A
     * push is far cheaper than a set insert, and a key equal to the
     * last one in its bucket (neighbouring fragments often share a
     * footprint anchor) is dropped, which halves what the merge
     * hashes on the paper scenes.
     */
    struct KeyBuffer
    {
        std::array<std::vector<uint64_t>, kShards> unwrapped;
        std::array<std::vector<uint64_t>, kShards> wrapped;

        void
        push(const KeyPair &k)
        {
            pushKey(unwrapped[shardOf(k.unwrapped)], k.unwrapped);
            pushKey(wrapped[shardOf(k.wrapped)], k.wrapped);
        }

      private:
        static void
        pushKey(std::vector<uint64_t> &bucket, uint64_t key)
        {
            if (bucket.empty() || bucket.back() != key)
                bucket.push_back(key);
        }
    };

    /** Record one fragment's footprint anchor for texture @p tex. */
    void
    record(uint16_t tex, uint16_t level, int32_t unwrapped_u,
           int32_t unwrapped_v, uint16_t wrapped_u, uint16_t wrapped_v)
    {
        insert(keys(tex, level, unwrapped_u, unwrapped_v, wrapped_u,
                    wrapped_v));
    }

    /** Insert a precomputed key pair (set union, order-free). */
    void
    insert(const KeyPair &k)
    {
        unwrapped_[shardOf(k.unwrapped)].insert(k.unwrapped);
        wrapped_[shardOf(k.wrapped)].insert(k.wrapped);
    }

    /**
     * Union shard @p shard of every buffer in @p buffers into this
     * counter. Each set is presized for all buffered keys, so the
     * union never rehashes, then trimmed to its distinct keys. Safe
     * to call concurrently for distinct shards, never for the same.
     */
    void unionShard(unsigned shard,
                    const std::vector<const KeyBuffer *> &buffers);

    RepetitionCounts
    counts() const
    {
        return {uniqueUnwrapped(), uniqueWrapped()};
    }

    double repetitionFactor() const { return counts().repetitionFactor(); }

    /** Shards hold disjoint keys, so the sizes just add up. */
    uint64_t
    uniqueWrapped() const
    {
        uint64_t n = 0;
        for (const auto &s : wrapped_)
            n += s.size();
        return n;
    }

    uint64_t
    uniqueUnwrapped() const
    {
        uint64_t n = 0;
        for (const auto &s : unwrapped_)
            n += s.size();
        return n;
    }

  private:
    std::array<FlatKeySet, kShards> unwrapped_;
    std::array<FlatKeySet, kShards> wrapped_;
};

} // namespace texcache

#endif // TEXCACHE_TRACE_TRACE_STATS_HH
