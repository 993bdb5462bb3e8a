#include "texture/sampler.hh"

#include <algorithm>
#include <cmath>

namespace texcache {

namespace {

/** Convert an 8-bit channel to float in [0,1]. */
inline float
toFloat(uint8_t c)
{
    return static_cast<float>(c) * (1.0f / 255.0f);
}

inline Vec4
toVec(const Rgba8 &c)
{
    return {toFloat(c.r), toFloat(c.g), toFloat(c.b), toFloat(c.a)};
}

/** GL_REPEAT wrap of an integer texel coordinate (power-of-two size). */
inline unsigned
wrapRepeat(int coord, unsigned size)
{
    return static_cast<unsigned>(coord) & (size - 1);
}

/** GL_CLAMP(-to-edge) of an integer texel coordinate. */
inline unsigned
wrapClamp(int coord, unsigned size)
{
    if (coord < 0)
        return 0;
    if (coord >= static_cast<int>(size))
        return size - 1;
    return static_cast<unsigned>(coord);
}

inline unsigned
applyWrap(int coord, unsigned size, WrapMode wrap)
{
    return wrap == WrapMode::Repeat ? wrapRepeat(coord, size)
                                    : wrapClamp(coord, size);
}

} // namespace

float
computeLod(float dudx, float dvdx, float dudy, float dvdy)
{
    float rho_x = std::sqrt(dudx * dudx + dvdx * dvdx);
    float rho_y = std::sqrt(dudy * dudy + dvdy * dvdy);
    float rho = std::max(rho_x, rho_y);
    // rho is the texel footprint of one pixel step; lambda = log2(rho).
    // Guard against degenerate (zero-area) footprints.
    if (rho <= 1e-20f)
        return -20.0f;
    return std::log2(rho);
}

Vec4
sampleBilinearLevel(const MipMap &mip, unsigned level, float u, float v,
                    TexelTouch *touches, WrapMode wrap)
{
    const Image &img = mip.level(level);
    unsigned w = img.width();
    unsigned h = img.height();

    // GL texel addressing: the sample point in texel units is
    // (u * w - 0.5, v * h - 0.5); the four nearest texels surround it.
    float su = u * static_cast<float>(w) - 0.5f;
    float sv = v * static_cast<float>(h) - 0.5f;
    int i0 = static_cast<int>(std::floor(su));
    int j0 = static_cast<int>(std::floor(sv));
    float fu = su - static_cast<float>(i0);
    float fv = sv - static_cast<float>(j0);

    unsigned u0 = applyWrap(i0, w, wrap);
    unsigned u1 = applyWrap(i0 + 1, w, wrap);
    unsigned v0 = applyWrap(j0, h, wrap);
    unsigned v1 = applyWrap(j0 + 1, h, wrap);

    touches[0] = {static_cast<uint16_t>(level), static_cast<uint16_t>(u0),
                  static_cast<uint16_t>(v0)};
    touches[1] = {static_cast<uint16_t>(level), static_cast<uint16_t>(u1),
                  static_cast<uint16_t>(v0)};
    touches[2] = {static_cast<uint16_t>(level), static_cast<uint16_t>(u0),
                  static_cast<uint16_t>(v1)};
    touches[3] = {static_cast<uint16_t>(level), static_cast<uint16_t>(u1),
                  static_cast<uint16_t>(v1)};

    Vec4 c00 = toVec(img.texel(u0, v0));
    Vec4 c10 = toVec(img.texel(u1, v0));
    Vec4 c01 = toVec(img.texel(u0, v1));
    Vec4 c11 = toVec(img.texel(u1, v1));

    Vec4 top = c00 + (c10 - c00) * fu;
    Vec4 bot = c01 + (c11 - c01) * fu;
    return top + (bot - top) * fv;
}

SampleResult
sampleMipMap(const MipMap &mip, float u, float v, float lambda,
             WrapMode wrap)
{
    SampleResult res;
    if (lambda <= 0.0f) {
        // Magnification: bilinear from the most detailed level.
        res.kind = FilterKind::Bilinear;
        res.numTouches = 4;
        res.color = sampleBilinearLevel(mip, 0, u, v, res.touches,
                                        wrap);
        return res;
    }

    // Minification: trilinear between the two adjacent levels.
    unsigned max_level = mip.numLevels() - 1;
    float clamped = std::min(lambda, static_cast<float>(max_level));
    unsigned lower = static_cast<unsigned>(clamped);
    if (lower > max_level - (max_level ? 1 : 0) && max_level > 0)
        lower = max_level - 1;
    if (max_level == 0)
        lower = 0;
    unsigned upper = std::min(lower + 1, max_level);
    float frac = clamped - static_cast<float>(lower);
    if (frac < 0.0f)
        frac = 0.0f;
    if (frac > 1.0f)
        frac = 1.0f;

    res.kind = FilterKind::Trilinear;
    res.numTouches = 8;
    Vec4 c_lo = sampleBilinearLevel(mip, lower, u, v, res.touches,
                                    wrap);
    Vec4 c_hi = sampleBilinearLevel(mip, upper, u, v, res.touches + 4,
                                    wrap);
    res.color = c_lo + (c_hi - c_lo) * frac;
    return res;
}

SampleResult
sampleLevelBilinear(const MipMap &mip, unsigned level, float u, float v,
                    WrapMode wrap)
{
    panic_if(level >= mip.numLevels(), "level ", level, " of ",
             mip.numLevels());
    SampleResult res;
    res.kind = FilterKind::Bilinear;
    res.numTouches = 4;
    res.color = sampleBilinearLevel(mip, level, u, v, res.touches, wrap);
    return res;
}

SampleResult
sampleMipMapMode(const MipMap &mip, float u, float v, float lambda,
                 FilterMode mode, WrapMode wrap)
{
    if (mode == FilterMode::Trilinear)
        return sampleMipMap(mip, u, v, lambda, wrap);

    // Nearest-mip level selection per the GL spec: level ceil(lambda +
    // 0.5) - 1 for lambda > 0.5, i.e. round-to-nearest; magnification
    // stays on level 0.
    unsigned max_level = mip.numLevels() - 1;
    unsigned level = 0;
    if (lambda > 0.5f) {
        level = static_cast<unsigned>(lambda + 0.5f);
        if (level > max_level)
            level = max_level;
    }

    SampleResult res;
    if (mode == FilterMode::BilinearMipNearest) {
        res.kind = FilterKind::Bilinear;
        res.numTouches = 4;
        res.color = sampleBilinearLevel(mip, level, u, v, res.touches,
                                        wrap);
        return res;
    }

    // NearestMipNearest: one texel, the one whose cell contains (u,v).
    const Image &img = mip.level(level);
    unsigned w = img.width();
    unsigned h = img.height();
    int iu = static_cast<int>(std::floor(u * static_cast<float>(w)));
    int iv = static_cast<int>(std::floor(v * static_cast<float>(h)));
    unsigned tu = applyWrap(iu, w, wrap);
    unsigned tv = applyWrap(iv, h, wrap);
    res.kind = FilterKind::Nearest;
    res.numTouches = 1;
    res.touches[0] = {static_cast<uint16_t>(level),
                      static_cast<uint16_t>(tu),
                      static_cast<uint16_t>(tv)};
    const Rgba8 &c = img.texel(tu, tv);
    res.color = {c.r / 255.0f, c.g / 255.0f, c.b / 255.0f,
                 c.a / 255.0f};
    return res;
}

} // namespace texcache
