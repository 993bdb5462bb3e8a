/**
 * @file
 * Texel-coordinate traces.
 *
 * The key methodological observation (DESIGN.md section 5): the stream of
 * texel *coordinates* a scene generates depends only on the scene and the
 * rasterization order - not on the memory representation. We record that
 * stream once per (scene, rasterization order) and map it through each
 * memory layout to obtain the byte-address stream the cache simulator
 * consumes. One record is one texel touch, packed into 64 bits.
 */

#ifndef TEXCACHE_TRACE_TEXEL_TRACE_HH
#define TEXCACHE_TRACE_TEXEL_TRACE_HH

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "texture/sampler.hh"

namespace texcache {

/** Which role a texel touch played in its fragment's filter. */
enum class TouchKind : uint8_t
{
    Bilinear = 0,       ///< single-level bilinear filter
    TrilinearLower = 1, ///< the more detailed of the two mip levels
    TrilinearUpper = 2, ///< the less detailed level
    Nearest = 3,        ///< single-texel nearest filter (extension)
};

/** One texel touch: texture, level, texel coordinates, filter role. */
struct TexelRecord
{
    uint16_t texture;
    uint16_t level;
    uint16_t u;
    uint16_t v;
    TouchKind kind;

    /** Pack into 64 bits (u:16 | v:16 | level:5 | texture:11 | kind:2). */
    uint64_t
    pack() const
    {
        panic_if(level >= 32, "level ", level, " exceeds 5-bit field");
        panic_if(texture >= 2048, "texture id ", texture,
                 " exceeds 11-bit field");
        return static_cast<uint64_t>(u) |
               (static_cast<uint64_t>(v) << 16) |
               (static_cast<uint64_t>(level) << 32) |
               (static_cast<uint64_t>(texture) << 37) |
               (static_cast<uint64_t>(kind) << 48);
    }

    static TexelRecord
    unpack(uint64_t bits)
    {
        TexelRecord r;
        r.u = static_cast<uint16_t>(bits & 0xffff);
        r.v = static_cast<uint16_t>((bits >> 16) & 0xffff);
        r.level = static_cast<uint16_t>((bits >> 32) & 0x1f);
        r.texture = static_cast<uint16_t>((bits >> 37) & 0x7ff);
        r.kind = static_cast<TouchKind>((bits >> 48) & 0x3);
        return r;
    }
};

/**
 * Pack all touches of one filtered sample into @p out (room for 8)
 * with the same touch-role mapping as TexelTrace::appendSample.
 *
 * @return the number of records written (s.numTouches)
 */
unsigned packSampleRecords(uint16_t tex, const SampleResult &s,
                           uint64_t *out);

/**
 * Incremental consumer of packed trace records. The render pipeline
 * streams captured records into a sink (RenderOptions::traceSink)
 * instead of materializing them in RenderOutput::trace, which keeps
 * peak RSS flat no matter how long the trace is; ChunkedTraceWriter
 * (chunked_trace.hh) is the on-disk implementation.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume @p n packed records (texel_trace layout, in order). */
    virtual void append(const uint64_t *records, size_t n) = 0;
};

/**
 * std::allocator whose argument-less construct() default-initializes:
 * resizing a vector of integers leaves the new elements unwritten
 * instead of zero-filling them.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };

    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
    {}

    template <typename U>
    void
    construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** An in-memory texel trace for one rendered frame. */
class TexelTrace
{
  public:
    /** Packed records; resizePacked() leaves new ones unwritten. */
    using Records = std::vector<uint64_t, DefaultInitAllocator<uint64_t>>;

    void
    append(const TexelRecord &r)
    {
        records_.push_back(r.pack());
    }

    /** Append all touches of one filtered sample for texture @p tex. */
    void appendSample(uint16_t tex, const SampleResult &s);

    /** Bulk-append @p n already-packed records (per-span batching and
     *  the tile render engine's deterministic merge). */
    void
    appendPacked(const uint64_t *records, size_t n)
    {
        records_.insert(records_.end(), records, records + n);
    }

    /** Size the record vector so concurrent writers can fill disjoint
     *  ranges in place through mutablePacked() (the tile render
     *  engine's merge precomputes every segment's destination offset
     *  and copies segments in parallel). Records past the old size
     *  are not initialized: the caller writes every one of them. */
    void
    resizePacked(size_t n)
    {
        records_.resize(n);
    }

    /** Mutable base pointer for resizePacked()-style in-place fills. */
    uint64_t *mutablePacked() { return records_.data(); }

    /** The packed records, in order (bulk copies and comparisons). */
    const Records &packed() const { return records_; }

    size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    TexelRecord
    operator[](size_t i) const
    {
        return TexelRecord::unpack(records_[i]);
    }

    /** Visit every record in order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (uint64_t bits : records_)
            fn(TexelRecord::unpack(bits));
    }

    void
    clear()
    {
        records_.clear();
    }

    void
    reserve(size_t n)
    {
        records_.reserve(n);
    }

  private:
    Records records_;
};

} // namespace texcache

#endif // TEXCACHE_TRACE_TEXEL_TRACE_HH
