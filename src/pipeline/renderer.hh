/**
 * @file
 * The software graphics pipeline (paper section 4.1, first component).
 *
 * Geometry -> near clip -> perspective divide -> viewport -> fragment
 * generation in the configured rasterization order -> mip-mapped
 * texturing (every generated fragment is textured) -> depth test ->
 * framebuffer write. As in the paper's machine model (Fig 2.1), hidden
 * surface removal happens *after* texturing, so occluded fragments still
 * produce texture traffic.
 *
 * Rendering produces the frame image, the texel-coordinate trace, and
 * the per-scene statistics used by Tables 2.1 and 4.1.
 */

#ifndef TEXCACHE_PIPELINE_RENDERER_HH
#define TEXCACHE_PIPELINE_RENDERER_HH

#include <cstdint>
#include <functional>

#include "img/image.hh"
#include "pipeline/scene_types.hh"
#include "raster/rasterizer.hh"
#include "stats/stats.hh"
#include "trace/texel_trace.hh"
#include "trace/trace_stats.hh"

namespace texcache {

/** Per-frame pipeline statistics (Table 4.1 inputs). */
struct RenderStats
{
    uint64_t trianglesIn = 0;
    uint64_t trianglesculled = 0;     ///< rejected by near clip
    uint64_t trianglesRasterized = 0; ///< post-clip screen triangles
    uint64_t fragments = 0;           ///< textured pixels (with overdraw)
    uint64_t texelAccesses = 0;
    uint64_t bilinearFragments = 0;   ///< single-level bilinear
    uint64_t trilinearFragments = 0;
    uint64_t nearestFragments = 0;    ///< nearest-filter (extension)
    /** Base mip level each fragment sampled (log2 buckets; levels are
     *  small, so bucket k>=1 covers levels [2^(k-1), 2^k)). */
    stats::Distribution lodLevels;

    double sumCoveredArea = 0.0; ///< covered pixels per *input* triangle
    double sumBoxWidth = 0.0;    ///< screen bbox dims of drawn triangles
    double sumBoxHeight = 0.0;
    uint64_t boxSamples = 0;

    double avgTriangleArea() const
    {
        return trianglesIn ? sumCoveredArea / trianglesIn : 0.0;
    }
    double avgTriangleWidth() const
    {
        return boxSamples ? sumBoxWidth / boxSamples : 0.0;
    }
    double avgTriangleHeight() const
    {
        return boxSamples ? sumBoxHeight / boxSamples : 0.0;
    }
};

/** Everything a frame render produces. */
struct RenderOutput
{
    /** Empty unless RenderOptions::writeFramebuffer was set. */
    Image framebuffer;
    TexelTrace trace;
    /** Section 3.1.2 repetition, zero unless
     *  RenderOptions::countRepetition was set; the key sets die with
     *  the render. */
    RepetitionCounts repetition;
    RenderStats stats;
};

/**
 * Virtual-texturing decision for one fragment (produced by the
 * src/vt/ subsystem's resolver, consumed by the renderer). When
 * degraded, the fragment samples @p level bilinearly - the finest
 * fully-resident ancestor of its desired mip level - instead of
 * filtering at the requested level of detail.
 */
struct VtDecision
{
    bool degraded = false;
    uint16_t level = 0; ///< resident ancestor level when degraded
};

/**
 * Revision of the render path's *execution model*, keyed into the
 * on-disk trace cache (core/experiment.cc) so traces produced by an
 * older pipeline can never satisfy a newer build from disk and mask a
 * trace-generation regression. Bump whenever the way fragments or
 * texels are generated changes (revision 1 was the serial-only
 * renderer; 2 added the tile-parallel engine; 3 added the
 * ISA-dispatched SIMD span kernels to the touch-only path; 4 made
 * the engine's work unit a run of consecutive order tiles - a whole
 * 8x8 tile row, about one scanline strip of pixels - with flat
 * repetition sets and a merged trace that is not zero-filled).
 */
inline constexpr uint64_t kRenderPathRevision = 4;

/**
 * Options controlling what the render captures and how it filters.
 * The trace, the statistics and the filter mode are what the tile
 * engine renders; writeFramebuffer, countRepetition and the two hooks
 * are implemented by the reference renderer only, and render() routes
 * any render that sets one of them there.
 */
struct RenderOptions
{
    bool captureTrace = true;   ///< record the texel trace
    /**
     * When set (and captureTrace is on), captured records stream into
     * this sink instead of materializing in RenderOutput::trace, which
     * stays empty. The sink receives exactly the bytes the trace would
     * have held, in the same order, on both render paths: the serial
     * renderer streams per sample; the tile engine buffers per-tile
     * segments (peak memory bounded by one frame's fragments) and
     * drains them in canonical traversal order during the merge. The
     * sink is invoked from the merge/serial thread only.
     */
    TraceSink *traceSink = nullptr;
    bool writeFramebuffer = true; ///< produce the color image
    /** Count section 3.1.2 repetition into RenderOutput::repetition.
     *  Off by default: only the locality table reads it, and it costs
     *  two hash-set inserts per fragment. */
    bool countRepetition = false;
    /** Minification filter; the paper's studies all use Trilinear. */
    FilterMode filterMode = FilterMode::Trilinear;
    /**
     * Optional per-fragment hook invoked with the fragment (screen
     * position, attributes), its filtered sample (texel touches) and
     * the texture it sampled. Used by consumers that need screen
     * positions alongside texel accesses, e.g. the multi-generator
     * simulation (core/parallel.hh).
     */
    std::function<void(const Fragment &, const SampleResult &,
                       uint16_t texture)>
        onFragment;
    /**
     * Optional virtual-texturing residency hook, consulted per
     * fragment with the texture, its (u, v) and its computed LOD
     * before sampling. Drives page fetches as a side effect and
     * returns the graceful-degradation decision (VtSampler::hook()).
     * Unset = every texture fully resident (the paper's assumption).
     */
    std::function<VtDecision(uint16_t texture, float u, float v,
                             float lambda)>
        vtResolve;
};

/**
 * Render one frame of @p scene with the given rasterization order.
 *
 * A trace-only render runs the tile engine (renderTiled,
 * tile_render.hh); one that sets writeFramebuffer, countRepetition,
 * onFragment or vtResolve runs the serial reference renderer, the
 * only path that implements them. Both produce byte-identical traces
 * and statistics (tests/test_parallel_render.cc).
 * TEXCACHE_THREADS governs the engine's worker count.
 */
RenderOutput render(const Scene &scene, const RasterOrder &order,
                    const RenderOptions &opts = RenderOptions{});

/**
 * The serial reference renderer: one triangle at a time, the raster
 * order traversing each triangle's bounding box. This is the
 * byte-identity specification the tile engine (tile_render.hh) is
 * tested against, and the only path that writes the framebuffer,
 * counts repetition or calls the per-fragment hooks.
 */
RenderOutput renderReference(const Scene &scene, const RasterOrder &order,
                             const RenderOptions &opts = RenderOptions{});

/**
 * Register a frame's pipeline statistics (triangles, fragments, texel
 * fetches by filter kind, the sampled-LOD distribution) under @p g as
 * dump-time views; @p s must outlive every dump (stats/stats.hh).
 */
void exportRenderStats(stats::Group &g, const RenderStats &s);

} // namespace texcache

#endif // TEXCACHE_PIPELINE_RENDERER_HH
