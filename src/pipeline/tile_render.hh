/**
 * @file
 * Tile-parallel deterministic trace generation (DESIGN.md section 11).
 *
 * The screen is decomposed into tiles aligned to the rasterization
 * order's own traversal structure, and runs of tiles consecutive in
 * canonical order form work units of about one scanline strip of
 * pixels. Clipped triangles are binned into the units their bounding
 * boxes overlap, and the units render concurrently on the core/sweep
 * pool through the SIMD span kernels (simd/span_kernels.hh) - each
 * worker emitting into a private texel-record buffer and private
 * statistics. A deterministic merge then reassembles the
 * per-(triangle, unit) segments in (triangle order, canonical unit
 * order), which reproduces the serial traversal exactly: the trace
 * and statistics are byte-identical to renderReference() at any
 * thread count. The engine produces nothing else; framebuffers,
 * repetition counts and the per-fragment hooks are the reference
 * renderer's.
 *
 * Tile decompositions per order (each chosen so a tile boundary never
 * splits the serial traversal of a triangle *within* one tile's
 * region out of order):
 *
 *  - horizontal scanline: full-width row strips;
 *  - vertical scanline:   full-height column strips;
 *  - tiled:               exactly the order's screen-aligned tile
 *                         grid, in its tile traversal order; a unit
 *                         is a run of tiles within one tile row
 *                         (horizontal) or column (vertical);
 *  - Hilbert:             origin-aligned 2^k blocks, which occupy
 *                         contiguous Hilbert index ranges, ordered by
 *                         curve position.
 */

#ifndef TEXCACHE_PIPELINE_TILE_RENDER_HH
#define TEXCACHE_PIPELINE_TILE_RENDER_HH

#include "pipeline/renderer.hh"

namespace texcache {

/**
 * Render @p scene's trace (or stream it to opts.traceSink) and its
 * statistics with the tile engine. Byte-identical to
 * renderReference(scene, order, opts) for any TEXCACHE_THREADS value.
 * fatal()s when referenceOnlyOption(opts) names an option; render()
 * routes those to the reference path.
 */
RenderOutput renderTiled(const Scene &scene, const RasterOrder &order,
                         const RenderOptions &opts);

/**
 * The first option set in @p opts that only renderReference()
 * implements - writeFramebuffer, countRepetition, onFragment or
 * vtResolve - or nullptr when renderTiled() can render @p opts.
 */
const char *referenceOnlyOption(const RenderOptions &opts);

} // namespace texcache

#endif // TEXCACHE_PIPELINE_TILE_RENDER_HH
