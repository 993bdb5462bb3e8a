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
    /** Record one fragment's footprint anchor for texture @p tex. */
    void
    record(uint16_t tex, uint16_t level, int32_t unwrapped_u,
           int32_t unwrapped_v, uint16_t wrapped_u, uint16_t wrapped_v)
    {
        uint64_t key_base = (static_cast<uint64_t>(tex) << 48) |
                            (static_cast<uint64_t>(level) << 40);
        unwrapped_.insert(
            key_base |
            (static_cast<uint64_t>(static_cast<uint32_t>(unwrapped_u)) &
             0xfffff) |
            ((static_cast<uint64_t>(static_cast<uint32_t>(unwrapped_v)) &
              0xfffff)
             << 20));
        wrapped_.insert(key_base | wrapped_u |
                        (static_cast<uint64_t>(wrapped_v) << 20));
    }

    RepetitionCounts
    counts() const
    {
        return {uniqueUnwrapped(), uniqueWrapped()};
    }

    double repetitionFactor() const { return counts().repetitionFactor(); }
    uint64_t uniqueWrapped() const { return wrapped_.size(); }
    uint64_t uniqueUnwrapped() const { return unwrapped_.size(); }

  private:
    FlatKeySet unwrapped_;
    FlatKeySet wrapped_;
};

} // namespace texcache

#endif // TEXCACHE_TRACE_TRACE_STATS_HH
