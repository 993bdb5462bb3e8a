#include "img/procedural.hh"

#include <cmath>

namespace texcache {

namespace {

/** Integer lattice hash -> [0,1). */
float
latticeHash(int x, int y, uint32_t seed)
{
    uint32_t h = static_cast<uint32_t>(x) * 0x9e3779b1u;
    h ^= static_cast<uint32_t>(y) * 0x85ebca77u;
    h ^= seed * 0xc2b2ae3du;
    h ^= h >> 16;
    h *= 0x7feb352du;
    h ^= h >> 15;
    h *= 0x846ca68bu;
    h ^= h >> 16;
    return static_cast<float>(h) * (1.0f / 4294967296.0f);
}

float
smooth(float t)
{
    return t * t * (3.0f - 2.0f * t);
}

/** static_cast<int>(std::floor(v)) for |v| < 2^31, in fewer
 *  instructions: truncate toward zero, then step down once for a
 *  negative non-integer. */
int
floorToInt(float v)
{
    int i = static_cast<int>(v);
    return i - (v < static_cast<float>(i));
}

uint8_t
toByte(float v)
{
    v = v < 0.0f ? 0.0f : (v > 1.0f ? 1.0f : v);
    return static_cast<uint8_t>(v * 255.0f + 0.5f);
}

} // namespace

NoiseEvaluator::NoiseEvaluator(unsigned octaves, uint32_t seed)
    : cells_(octaves)
{
    for (unsigned o = 0; o < octaves; ++o)
        cells_[o].seed = seed + o * 131u;
}

float
NoiseEvaluator::operator()(float x, float y)
{
    float sum = 0.0f;
    float amp = 0.5f;
    float freq = 1.0f;
    float norm = 0.0f;
    for (Cell &c : cells_) {
        // One octave of bilinearly interpolated lattice noise.
        float ox = x * freq;
        float oy = y * freq;
        int xi = floorToInt(ox);
        int yi = floorToInt(oy);
        if (!c.hashed || xi != c.xi || yi != c.yi) {
            c.hashed = true;
            c.xi = xi;
            c.yi = yi;
            c.v00 = latticeHash(xi, yi, c.seed);
            c.v01 = latticeHash(xi, yi + 1, c.seed);
            c.d10 = latticeHash(xi + 1, yi, c.seed) - c.v00;
            c.d11 = latticeHash(xi + 1, yi + 1, c.seed) - c.v01;
        }
        float tx = smooth(ox - static_cast<float>(xi));
        float ty = smooth(oy - static_cast<float>(yi));
        float a = c.v00 + c.d10 * tx;
        float b = c.v01 + c.d11 * tx;
        sum += amp * (a + (b - a) * ty);
        norm += amp;
        amp *= 0.5f;
        freq *= 2.0f;
    }
    return norm > 0.0f ? sum / norm : 0.0f;
}

float
valueNoise(float x, float y, unsigned octaves, uint32_t seed)
{
    return NoiseEvaluator(octaves, seed)(x, y);
}

Image
makeChecker(unsigned size, unsigned cells, Rgba8 a, Rgba8 b)
{
    Image img(size, size);
    unsigned cell = size / (cells ? cells : 1);
    if (cell == 0)
        cell = 1;
    for (unsigned y = 0; y < size; ++y)
        for (unsigned x = 0; x < size; ++x)
            img.texel(x, y) = (((x / cell) + (y / cell)) & 1) ? a : b;
    return img;
}

Image
makeSatellite(unsigned size, uint32_t seed)
{
    Image img(size, size);
    float inv = 8.0f / static_cast<float>(size);
    NoiseEvaluator noise(5, seed);
    for (unsigned y = 0; y < size; ++y) {
        for (unsigned x = 0; x < size; ++x) {
            float h = noise(x * inv, y * inv);
            // Elevation-banded coloring: water, fields, forest, rock.
            Rgba8 c;
            if (h < 0.35f)
                c = {30, 60, static_cast<uint8_t>(120 + h * 100), 255};
            else if (h < 0.6f)
                c = {static_cast<uint8_t>(60 + h * 80),
                     static_cast<uint8_t>(120 + h * 60), 50, 255};
            else if (h < 0.8f)
                c = {static_cast<uint8_t>(40 + h * 60),
                     static_cast<uint8_t>(80 + h * 40), 30, 255};
            else
                c = {toByte(h), toByte(h * 0.95f), toByte(h * 0.9f), 255};
            img.texel(x, y) = c;
        }
    }
    return img;
}

Image
makeBricks(unsigned width, unsigned height, uint32_t seed)
{
    Image img(width, height);
    unsigned brick_h = height / 8 ? height / 8 : 1;
    unsigned brick_w = width / 4 ? width / 4 : 1;
    NoiseEvaluator noise(3, seed);
    for (unsigned y = 0; y < height; ++y) {
        unsigned row = y / brick_h;
        unsigned offset = (row & 1) ? brick_w / 2 : 0;
        for (unsigned x = 0; x < width; ++x) {
            bool mortar = (y % brick_h) < 2 ||
                          ((x + offset) % brick_w) < 2;
            if (mortar) {
                img.texel(x, y) = {180, 180, 175, 255};
            } else {
                float n = noise(x * 0.05f, y * 0.05f);
                img.texel(x, y) = {toByte(0.55f + 0.2f * n),
                                   toByte(0.25f + 0.1f * n),
                                   toByte(0.2f + 0.05f * n), 255};
            }
        }
    }
    return img;
}

Image
makeWood(unsigned width, unsigned height, uint32_t seed)
{
    Image img(width, height);
    NoiseEvaluator noise(3, seed);
    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            float fx = static_cast<float>(x) / width - 0.5f;
            float fy = static_cast<float>(y) / height - 0.5f;
            float r = std::sqrt(fx * fx + fy * fy);
            float wobble = noise(fx * 6.0f, fy * 6.0f);
            float ring = std::sin((r * 40.0f + wobble * 4.0f)) * 0.5f +
                         0.5f;
            img.texel(x, y) = {toByte(0.45f + 0.3f * ring),
                               toByte(0.27f + 0.18f * ring),
                               toByte(0.12f + 0.08f * ring), 255};
        }
    }
    return img;
}

Image
makeMarble(unsigned size, uint32_t seed)
{
    Image img(size, size);
    float inv = 4.0f / static_cast<float>(size);
    NoiseEvaluator noise(4, seed);
    for (unsigned y = 0; y < size; ++y) {
        for (unsigned x = 0; x < size; ++x) {
            float n = noise(x * inv, y * inv);
            float v = std::sin((x * inv + n * 5.0f) * 3.14159f) * 0.5f +
                      0.5f;
            img.texel(x, y) = {toByte(0.7f + 0.3f * v),
                               toByte(0.68f + 0.3f * v),
                               toByte(0.72f + 0.25f * v), 255};
        }
    }
    return img;
}

} // namespace texcache
