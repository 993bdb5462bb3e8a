/**
 * @file
 * Procedural texture-content generators.
 *
 * The paper's benchmark textures are photographs (satellite imagery,
 * building facades, wood grain). Texel values never affect the address
 * stream, but visually distinct content makes the rendered validation
 * images meaningful, so each generator imitates the look of its scene's
 * texture class.
 *
 * Each generator walks its rows with one NoiseEvaluator. Every texel
 * is a pure function of its coordinates and seed, so generators may
 * run on any thread and in any order (the scene builders run them as
 * sweep-pool tasks) without changing a byte.
 */

#ifndef TEXCACHE_IMG_PROCEDURAL_HH
#define TEXCACHE_IMG_PROCEDURAL_HH

#include <cstdint>
#include <vector>

#include "img/image.hh"

namespace texcache {

/**
 * 2-D fractal value noise in [0,1]: @p octaves octaves of bilinearly
 * smoothed lattice noise, octave o at frequency 2^o and amplitude
 * 2^-(o+1), normalized by the amplitude sum.
 *
 * Each octave remembers the four lattice values of the cell its last
 * sample fell in and hashes again only when the sample's cell
 * (xi, yi) changes, so samples walked along a row pay the lattice
 * hashes once per cell. The cache never changes a result: a sample
 * computes the same float values from the same lattice corners as a
 * fresh evaluator would, in any visiting order, so valueNoise (a
 * fresh evaluator per call) and a generator's cached walk agree bit
 * for bit. Any octave count is supported. One evaluator is not safe
 * to share between threads; give each task its own.
 */
class NoiseEvaluator
{
  public:
    NoiseEvaluator(unsigned octaves, uint32_t seed);

    /** The noise value at (@p x, @p y). */
    float operator()(float x, float y);

  private:
    /** One octave's last lattice cell: the corner values at (xi, yi)
     *  and (xi, yi + 1) and the differences to their right-hand
     *  neighbours, v(xi + 1, .) - v(xi, .). */
    struct Cell
    {
        uint32_t seed = 0;
        bool hashed = false; ///< the fields below hold a cell
        int xi = 0;
        int yi = 0;
        float v00 = 0, v01 = 0, d10 = 0, d11 = 0;
    };

    std::vector<Cell> cells_;
};

/** One sample of NoiseEvaluator(@p octaves, @p seed), deterministic. */
float valueNoise(float x, float y, unsigned octaves, uint32_t seed);

/** A checkerboard of @p cells x @p cells squares in two colors. */
Image makeChecker(unsigned size, unsigned cells, Rgba8 a, Rgba8 b);

/** Fractal-noise terrain imagery (greens/browns), satellite-photo-like. */
Image makeSatellite(unsigned size, uint32_t seed);

/** Brick-wall facade texture (mortar grid over noisy brick color). */
Image makeBricks(unsigned width, unsigned height, uint32_t seed);

/** Wood-grain texture (concentric noisy rings), guitar-body-like. */
Image makeWood(unsigned width, unsigned height, uint32_t seed);

/** Marble-like texture used for the goblet surface. */
Image makeMarble(unsigned size, uint32_t seed);

} // namespace texcache

#endif // TEXCACHE_IMG_PROCEDURAL_HH
