/**
 * @file
 * Mesh- and texture-building helpers shared by the benchmark scene
 * generators.
 */

#ifndef TEXCACHE_SCENE_MESH_UTIL_HH
#define TEXCACHE_SCENE_MESH_UTIL_HH

#include <functional>
#include <vector>

#include "img/image.hh"
#include "pipeline/scene_types.hh"

namespace texcache {

/** Produces one texture's level-0 image. */
using TextureMaker = std::function<Image()>;

/**
 * Append one texture per entry of @p makers to scene.textures, in
 * index order.
 *
 * Each texture - its generator call plus its MipMap pyramid - is an
 * independent task on the sweep pool (Sweep::run, core/sweep.hh),
 * which returns results by index, so the textures land in the same
 * order and with the same bytes at any thread count;
 * TEXCACHE_THREADS=1 builds them one after another on the calling
 * thread. Makers run concurrently and must not share mutable state;
 * the procedural generators (img/procedural.hh) are pure functions of
 * their arguments.
 */
void addTextures(Scene &scene, const std::vector<TextureMaker> &makers);

/** Simple Lambert term against a fixed directional light, in [amb, 1]. */
float lambertShade(Vec3 normal, Vec3 light_dir, float ambient = 0.35f);

/**
 * Append a bilinear quad patch subdivided into 2 * nu * nv triangles.
 *
 * Corners are given counter-clockwise (p00, p10, p11, p01); texture
 * coordinates interpolate from uv00 to uv11 (exceeding [0,1] repeats the
 * texture). A constant shade from the quad normal is applied.
 *
 * @return number of triangles appended.
 */
unsigned addQuadPatch(Scene &scene, uint16_t texture, Vec3 p00, Vec3 p10,
                      Vec3 p11, Vec3 p01, Vec2 uv00, Vec2 uv11,
                      unsigned nu, unsigned nv, Vec3 light_dir);

} // namespace texcache

#endif // TEXCACHE_SCENE_MESH_UTIL_HH
