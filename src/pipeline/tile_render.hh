/**
 * @file
 * Tile-parallel deterministic rendering (DESIGN.md section 11).
 *
 * The screen is decomposed into tiles aligned to the rasterization
 * order's own traversal structure, clipped triangles are binned into
 * the tiles their bounding boxes overlap, and the tiles render
 * concurrently on the core/sweep pool - each worker
 * emitting into a private texel-record buffer, private statistics and
 * a private (disjoint) framebuffer region. A deterministic merge then
 * reassembles the per-(triangle, tile) segments in (triangle order,
 * canonical tile order), which reproduces the serial traversal
 * exactly: the trace, framebuffer and statistics are byte-identical
 * to renderReference() at any thread count.
 *
 * Tile decompositions per order (each chosen so a tile boundary never
 * splits the serial traversal of a triangle *within* one tile's
 * region out of order):
 *
 *  - horizontal scanline: full-width row strips;
 *  - vertical scanline:   full-height column strips;
 *  - tiled:               exactly the order's screen-aligned tile
 *                         grid, in its tile traversal order;
 *  - Hilbert:             origin-aligned 2^k blocks, which occupy
 *                         contiguous Hilbert index ranges, ordered by
 *                         curve position.
 */

#ifndef TEXCACHE_PIPELINE_TILE_RENDER_HH
#define TEXCACHE_PIPELINE_TILE_RENDER_HH

#include "pipeline/renderer.hh"

namespace texcache {

/**
 * Render @p scene with the tile engine. Byte-identical to
 * renderReference(scene, order, opts) for any TEXCACHE_THREADS value;
 * does not support the per-fragment hooks (render() routes those to
 * the reference path).
 */
RenderOutput renderTiled(const Scene &scene, const RasterOrder &order,
                         const RenderOptions &opts);

} // namespace texcache

#endif // TEXCACHE_PIPELINE_TILE_RENDER_HH
