/**
 * @file
 * OpenGL-1.0-conformant mip-mapped texture sampling.
 *
 * Implements the level-of-detail computation and the bilinear / trilinear
 * filters of the GL specification (GL_LINEAR_MIPMAP_LINEAR minification,
 * GL_LINEAR magnification, GL_REPEAT wrap), and reports every texel the
 * filter touches so the renderer can drive the cache simulator - eight
 * texels per trilinearly filtered fragment, four per bilinear one, as in
 * the paper.
 */

#ifndef TEXCACHE_TEXTURE_SAMPLER_HH
#define TEXCACHE_TEXTURE_SAMPLER_HH

#include <cstdint>

#include "geom/vec.hh"
#include "texture/mipmap.hh"

namespace texcache {

/** One texel read by a filter: pyramid level plus integer coordinates. */
struct TexelTouch
{
    uint16_t level;
    uint16_t u;
    uint16_t v;
};

/** The filter kind a fragment used (determines touch count). */
enum class FilterKind : uint8_t
{
    Bilinear,  ///< 4 texels from a single level
    Trilinear, ///< minification: 4 texels from each of 2 adjacent levels
    Nearest,   ///< 1 texel from a single level
};

/**
 * Texture coordinate wrap mode (GL 1.0: GL_REPEAT / GL_CLAMP-to-edge).
 * The paper's scenes all use REPEAT (repeated brick walls etc.); CLAMP
 * is provided for library completeness and affects which texels - and
 * therefore which addresses - border samples touch.
 */
enum class WrapMode : uint8_t
{
    Repeat,
    Clamp,
};

/**
 * Minification filter selection (extension beyond the paper, matching
 * the OpenGL 1.0 filter set). The paper evaluates trilinear
 * (GL_LINEAR_MIPMAP_LINEAR, 8 texels/fragment) throughout; the cheaper
 * modes trade filter quality for texel traffic and are exercised by
 * the filtering ablation bench.
 */
enum class FilterMode : uint8_t
{
    Trilinear,          ///< GL_LINEAR_MIPMAP_LINEAR (the paper's mode)
    BilinearMipNearest, ///< GL_LINEAR_MIPMAP_NEAREST: 4 texels
    NearestMipNearest,  ///< GL_NEAREST_MIPMAP_NEAREST: 1 texel
};

/** Result of filtering one fragment's texture sample. */
struct SampleResult
{
    Vec4 color;          ///< filtered RGBA in [0,1]
    FilterKind kind;     ///< which filter ran
    unsigned numTouches; ///< 4 (bilinear) or 8 (trilinear)
    TexelTouch touches[8];
};

/**
 * Level-of-detail (lambda) from screen-space texture-coordinate
 * derivatives, per the GL spec: log2 of the maximum texel footprint of a
 * one-pixel step in x or y. The derivatives are in *texel* units of
 * level 0 (i.e. already scaled by the level-0 dimensions).
 */
float computeLod(float dudx, float dvdx, float dudy, float dvdy);

/**
 * Sample a mip map at normalized coordinates (u, v) with the given LOD.
 *
 * lambda <= 0 selects bilinear magnification from level 0; lambda > 0
 * selects trilinear minification between floor(lambda) and
 * floor(lambda) + 1 (clamped to the coarsest level; the hardware model
 * still performs eight reads in that case, as a real trilinear unit
 * would).
 *
 * Wrap mode is GL_REPEAT. @p u and @p v may be any real values.
 */
SampleResult sampleMipMap(const MipMap &mip, float u, float v,
                          float lambda,
                          WrapMode wrap = WrapMode::Repeat);

/**
 * Bilinear filter within a single level (the building block of
 * sampleMipMap, exposed for tests). Touches are appended to
 * @p touches starting at @p touch_base.
 */
Vec4 sampleBilinearLevel(const MipMap &mip, unsigned level, float u,
                         float v, TexelTouch *touches,
                         WrapMode wrap = WrapMode::Repeat);

/**
 * Bilinear sample pinned to one explicit pyramid level, regardless of
 * LOD - the virtual-texturing degradation path (src/vt/): when the
 * desired level's pages are not resident, the fragment falls back to
 * the finest fully-resident ancestor level and filters within it.
 */
SampleResult sampleLevelBilinear(const MipMap &mip, unsigned level,
                                 float u, float v,
                                 WrapMode wrap = WrapMode::Repeat);

/**
 * Sample with an explicit minification filter mode. Trilinear matches
 * sampleMipMap exactly; the nearest-mip modes select the level nearest
 * to lambda (round-to-nearest, per the GL spec's 0.5 threshold) and
 * filter within it bilinearly or by nearest-texel.
 */
SampleResult sampleMipMapMode(const MipMap &mip, float u, float v,
                              float lambda, FilterMode mode,
                              WrapMode wrap = WrapMode::Repeat);

} // namespace texcache

#endif // TEXCACHE_TEXTURE_SAMPLER_HH
