/**
 * @file
 * Binding between a scene's textures and a memory representation.
 *
 * A SceneLayout places every texture of a scene into one simulated
 * address space under a chosen representation and then maps recorded
 * texel traces to byte-address streams - the paper's pipeline-coupled
 * cache simulation, factored so one rendered trace can be replayed
 * under many representations (DESIGN.md section 5).
 */

#ifndef TEXCACHE_CORE_SCENE_LAYOUT_HH
#define TEXCACHE_CORE_SCENE_LAYOUT_HH

#include <algorithm>
#include <vector>

#include "layout/layout.hh"
#include "pipeline/scene_types.hh"
#include "trace/texel_trace.hh"

namespace texcache {

/** Per-scene instantiation of a texture memory representation. */
class SceneLayout
{
  public:
    SceneLayout(const Scene &scene, const LayoutParams &params);

    // maps_ points into layouts_' level tables: a copy would share them.
    SceneLayout(const SceneLayout &) = delete;
    SceneLayout &operator=(const SceneLayout &) = delete;

    /** The layout serving texture @p tex. */
    const TextureLayout &
    layout(unsigned tex) const
    {
        panic_if(tex >= layouts_.size(), "texture ", tex, " of ",
                 layouts_.size());
        return layouts_[tex];
    }

    unsigned numTextures() const
    {
        return static_cast<unsigned>(layouts_.size());
    }

    const LayoutParams &params() const { return params_; }

    /** Bytes of simulated memory all textures occupy together. */
    uint64_t totalFootprint() const { return footprint_; }

    /**
     * Map every record of @p trace to its byte address(es) in order and
     * invoke @p fn(Addr) for each.
     */
    template <typename Fn>
    void
    forEachAddress(const TexelTrace &trace, Fn &&fn) const
    {
        std::vector<Addr> addrs;
        for (size_t i = 0; i < trace.size(); i += kMapChunk) {
            mapPacked(trace.packed().data() + i,
                      std::min(kMapChunk, trace.size() - i), addrs);
            for (Addr a : addrs)
                fn(a);
        }
    }

    /**
     * Translate records [@p begin, @p end) of @p trace into @p out
     * (replacing its contents, reusing its storage). Mapping a span
     * once and replaying the flat buffer through one or more
     * simulators is the sweep engine's fast path: the trace decode and
     * the layout address computation are paid once per span instead of
     * once per (access x configuration).
     */
    void
    mapRange(const TexelTrace &trace, size_t begin, size_t end,
             std::vector<Addr> &out) const
    {
        mapPacked(trace.packed().data() + begin, end - begin, out);
    }

    /**
     * Translate @p n packed records into @p out (replacing its
     * contents, reusing its storage): the one record-to-address loop
     * behind mapRange() and forEachAddress(), and the streamed-replay
     * path's map of a TraceSource chunk. A record whose texture, level
     * or texel lies outside the scene - a trace of another scene, or a
     * damaged file - is fatal().
     */
    void
    mapPacked(const uint64_t *recs, size_t n,
              std::vector<Addr> &out) const
    {
        switch (params_.kind) {
          case LayoutKind::Williams:
            return mapWith<LayoutKind::Williams>(recs, n, out);
          case LayoutKind::Nonblocked:
            return mapWith<LayoutKind::Nonblocked>(recs, n, out);
          case LayoutKind::Blocked:
            return mapWith<LayoutKind::Blocked>(recs, n, out);
          case LayoutKind::PaddedBlocked:
            return mapWith<LayoutKind::PaddedBlocked>(recs, n, out);
          case LayoutKind::Blocked6D:
            return mapWith<LayoutKind::Blocked6D>(recs, n, out);
          case LayoutKind::CompressedBlocked:
            return mapWith<LayoutKind::CompressedBlocked>(recs, n, out);
        }
    }

    /** Span length (in records) the chunked replay loops use. */
    static constexpr size_t kMapChunk = 1 << 16;

  private:
    /** One texture's entry in the flat table mapPacked() reads. */
    struct TextureMaps
    {
        const LevelMap *levels;
        unsigned numLevels;
    };

    /** mapPacked() with @p Kind's field and address counts fixed. */
    template <LayoutKind Kind>
    void
    mapWith(const uint64_t *recs, size_t n, std::vector<Addr> &out) const
    {
        constexpr unsigned kAddrs = layoutAddresses(Kind);
        out.resize(n * kAddrs);
        Addr *o = out.data();
        const TextureMaps *maps = maps_.data();
        const size_t textures = maps_.size();
        for (size_t i = 0; i < n; ++i) {
            TexelRecord r = TexelRecord::unpack(recs[i]);
            // The record's low 32 bits are the texel word u | v << 16.
            uint32_t uv = static_cast<uint32_t>(recs[i]);
            if (r.texture >= textures ||
                r.level >= maps[r.texture].numLevels) [[unlikely]]
                rejectRecord(recs[i]);
            const LevelMap &m = maps[r.texture].levels[r.level];
            if (uv & m.outside) [[unlikely]]
                rejectRecord(recs[i]);
            Addr off = m.offset(uv, layoutFields(Kind));
            for (unsigned k = 0; k < kAddrs; ++k)
                o[k] = m.base[k] + off;
            o += kAddrs;
        }
    }

    /** fatal(): @p rec names a texture, level or texel not in the
     *  scene. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    rejectRecord(uint64_t rec) const;

    LayoutParams params_;
    AddressSpace space_;
    std::vector<TextureLayout> layouts_;
    std::vector<TextureMaps> maps_;
    uint64_t footprint_ = 0;
};

} // namespace texcache

#endif // TEXCACHE_CORE_SCENE_LAYOUT_HH
