/**
 * @file
 * The SIMD span kernels (src/simd/) against the scalar reference
 * chain, for every compiled ISA level: randomized triangles, mip
 * pyramids, filter modes and wrap modes, with batch sizes 1..8 so
 * unaligned tails (n % lanes != 0) are always exercised. A kernel
 * lane must reproduce the touches of
 *
 *   attributesAt -> computeLod -> sampleMipMapMode ->
 *   packSampleRecords
 *
 * bit for bit. Also covers coverMask vs TriangleSetup::covers and
 * the TEXCACHE_SIMD dispatch rules (fatal on unknown or unsupported
 * levels).
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "raster/triangle.hh"
#include "simd/isa.hh"
#include "simd/span_kernels.hh"
#include "texture/mipmap.hh"
#include "texture/sampler.hh"
#include "trace/texel_trace.hh"

namespace texcache {
namespace {

uint32_t
lcg(uint32_t &x)
{
    x = x * 1664525u + 1013904223u;
    return x;
}

float
frand(uint32_t &x, float lo, float hi)
{
    return lo + (hi - lo) *
                    (static_cast<float>(lcg(x) >> 8) / 16777216.0f);
}

MipMap
gradientMip(unsigned w, unsigned h)
{
    Image img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.at(x, y) = {static_cast<uint8_t>(x * 7),
                            static_cast<uint8_t>(y * 11),
                            static_cast<uint8_t>(x + y), 255};
    return MipMap(std::move(img));
}

/** A random valid triangle with some covered pixels, or nullopt-ish. */
bool
randomTriangle(uint32_t &rng, TriangleSetup &setup,
               std::vector<std::pair<int, int>> &covered)
{
    auto vert = [&](ScreenVertex &v) {
        v.x = frand(rng, 0.0f, 64.0f);
        v.y = frand(rng, 0.0f, 64.0f);
        v.z = frand(rng, 0.0f, 1.0f);
        v.invW = frand(rng, 0.3f, 3.0f);
        v.uOverW = frand(rng, -3.0f, 3.0f);
        v.vOverW = frand(rng, -3.0f, 3.0f);
        v.shade = 1.0f;
    };
    ScreenVertex a, b, c;
    vert(a);
    vert(b);
    vert(c);
    setup = TriangleSetup(a, b, c);
    if (!setup.valid())
        return false;
    covered.clear();
    PixelRect box = setup.bounds(64, 64);
    for (int y = box.y0; y <= box.y1; ++y)
        for (int x = box.x0; x <= box.x1; ++x)
            if (setup.covers(x, y))
                covered.emplace_back(x, y);
    return !covered.empty();
}

/** The scalar reference chain for one covered pixel. */
struct Truth
{
    FilterKind kind;
    unsigned numTouches;
    uint16_t firstLevel, firstU, firstV;
    uint64_t recs[8];
    unsigned recCount;
};

Truth
referenceAt(const TriangleSetup &setup, const MipMap &mip, uint16_t tex,
            FilterMode mode, WrapMode wrap, int x, int y)
{
    float texW = static_cast<float>(mip.width(0));
    float texH = static_cast<float>(mip.height(0));
    Fragment f;
    setup.attributesAt(x, y, f);
    float lambda = computeLod(f.dudx * texW, f.dvdx * texH,
                              f.dudy * texW, f.dvdy * texH);
    SampleResult s = sampleMipMapMode(mip, f.u, f.v, lambda, mode, wrap);

    Truth t;
    t.kind = s.kind;
    t.numTouches = s.numTouches;
    t.firstLevel = s.touches[0].level;
    t.firstU = s.touches[0].u;
    t.firstV = s.touches[0].v;
    t.recCount = packSampleRecords(tex, s, t.recs);
    return t;
}

TEST(SimdKernels, TouchesMatchReferenceFuzz)
{
    const std::vector<simd::Isa> isas = simd::supportedIsas();
    ASSERT_FALSE(isas.empty());

    std::vector<MipMap> mips;
    mips.push_back(gradientMip(64, 64));
    mips.push_back(gradientMip(64, 16));
    mips.push_back(gradientMip(1, 1));
    const FilterMode modes[] = {FilterMode::Trilinear,
                                FilterMode::BilinearMipNearest,
                                FilterMode::NearestMipNearest};
    const WrapMode wraps[] = {WrapMode::Repeat, WrapMode::Clamp};
    // Batch sizes cycle through every tail residue, 8-wide included.
    const int sizes[] = {1, 8, 3, 5, 2, 7, 4, 6};

    uint32_t rng = 0xdecafbadu;
    uint64_t lanesChecked = 0;
    for (const MipMap &mip : mips) {
        for (FilterMode mode : modes) {
            for (WrapMode wrap : wraps) {
                TriangleSetup setup({}, {}, {});
                std::vector<std::pair<int, int>> covered;
                int made = 0;
                while (made < 4) {
                    if (!randomTriangle(rng, setup, covered))
                        continue;
                    ++made;
                    uint16_t tex =
                        static_cast<uint16_t>(lcg(rng) % 2048);
                    simd::SpanContext ctx = simd::makeSpanContext(
                        setup, mip, tex,
                        static_cast<float>(mip.width(0)),
                        static_cast<float>(mip.height(0)), mode, wrap);

                    size_t at = 0;
                    int szi = 0;
                    while (at < covered.size()) {
                        int n = std::min<int>(
                            sizes[szi++ % 8],
                            static_cast<int>(covered.size() - at));
                        int32_t xs[simd::kSpanBatch];
                        int32_t ys[simd::kSpanBatch];
                        for (int i = 0; i < n; ++i) {
                            xs[i] = covered[at + i].first;
                            ys[i] = covered[at + i].second;
                        }
                        for (simd::Isa isa : isas) {
                            SCOPED_TRACE(std::string("isa=") +
                                         simd::isaName(isa));
                            const simd::SpanKernels *k =
                                simd::kernelsFor(isa);
                            ASSERT_NE(k, nullptr);
                            simd::SpanBatchOut out;
                            k->touches(ctx, xs, ys, n, out);
                            uint32_t prevEnd = 0;
                            for (int i = 0; i < n; ++i) {
                                SCOPED_TRACE("lane " +
                                             std::to_string(i) + " of " +
                                             std::to_string(n));
                                Truth t = referenceAt(setup, mip, tex,
                                                      mode, wrap, xs[i],
                                                      ys[i]);
                                EXPECT_EQ(out.kind[i], t.kind);
                                EXPECT_EQ(out.numTouches[i],
                                          t.numTouches);
                                EXPECT_EQ(out.firstLevel[i],
                                          t.firstLevel);
                                EXPECT_EQ(out.firstU[i], t.firstU);
                                EXPECT_EQ(out.firstV[i], t.firstV);
                                ASSERT_EQ(out.recEnd[i] - prevEnd,
                                          t.recCount);
                                for (unsigned r = 0; r < t.recCount;
                                     ++r)
                                    EXPECT_EQ(
                                        out.records[prevEnd + r],
                                        t.recs[r])
                                        << "record " << r;
                                prevEnd = out.recEnd[i];
                                ++lanesChecked;
                            }
                        }
                        at += static_cast<size_t>(n);
                    }
                }
            }
        }
    }
    // Make sure the fuzz actually covered a meaningful population.
    EXPECT_GT(lanesChecked, 10000u);
}

TEST(SimdKernels, CoverMaskMatchesCovers)
{
    const std::vector<simd::Isa> isas = simd::supportedIsas();
    MipMap mip = gradientMip(64, 64);
    uint32_t rng = 0x5eedf00du;
    const int sizes[] = {8, 1, 5, 8, 3, 7, 2, 6, 4};

    int made = 0;
    uint64_t checked = 0;
    while (made < 32) {
        TriangleSetup setup({}, {}, {});
        std::vector<std::pair<int, int>> covered;
        if (!randomTriangle(rng, setup, covered))
            continue;
        ++made;
        simd::SpanContext ctx = simd::makeSpanContext(
            setup, mip, 0, 64.0f, 64.0f, FilterMode::Trilinear,
            WrapMode::Repeat);
        PixelRect box = setup.bounds(64, 64);
        // Pixels in and around the box: a mix of covered, uncovered
        // and boundary cases.
        for (int trial = 0; trial < 16; ++trial) {
            int n = sizes[trial % 9];
            int32_t xs[simd::kSpanBatch], ys[simd::kSpanBatch];
            for (int i = 0; i < n; ++i) {
                xs[i] = box.x0 - 2 +
                        static_cast<int>(lcg(rng) %
                                         (box.x1 - box.x0 + 5));
                ys[i] = box.y0 - 2 +
                        static_cast<int>(lcg(rng) %
                                         (box.y1 - box.y0 + 5));
            }
            for (simd::Isa isa : isas) {
                SCOPED_TRACE(std::string("isa=") + simd::isaName(isa));
                uint32_t m =
                    simd::kernelsFor(isa)->coverMask(ctx, xs, ys, n);
                EXPECT_EQ(m >> n, 0u) << "bits past n must be clear";
                for (int i = 0; i < n; ++i) {
                    EXPECT_EQ((m >> i) & 1u,
                              setup.covers(xs[i], ys[i]) ? 1u : 0u)
                        << "pixel (" << xs[i] << ", " << ys[i] << ")";
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST(SimdKernels, DispatchRules)
{
    std::vector<simd::Isa> isas = simd::supportedIsas();
    // Scalar is always compiled and always supported.
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), simd::Isa::Scalar);
    EXPECT_STREQ(simd::isaName(simd::Isa::Scalar), "scalar");
    EXPECT_STREQ(simd::isaName(simd::Isa::Sse41), "sse41");
    EXPECT_STREQ(simd::isaName(simd::Isa::Avx2), "avx2");

    // "native", empty and unset all resolve to the best level.
    EXPECT_EQ(simd::resolveIsa("native"), simd::bestIsa());
    EXPECT_EQ(simd::resolveIsa(""), simd::bestIsa());
    EXPECT_EQ(simd::resolveIsa(nullptr), simd::bestIsa());
    EXPECT_EQ(simd::resolveIsa("scalar"), simd::Isa::Scalar);
    // The best level is the last supported one.
    EXPECT_EQ(simd::bestIsa(), isas.back());

    // Every supported level can be activated and yields kernels.
    simd::Isa prev = simd::activeIsa();
    for (simd::Isa isa : isas) {
        simd::setActiveIsa(isa);
        EXPECT_EQ(simd::activeIsa(), isa);
        EXPECT_EQ(&simd::kernels(), simd::kernelsFor(isa));
    }
    simd::setActiveIsa(prev);
}

using SimdKernelsDeathTest = ::testing::Test;

TEST(SimdKernelsDeathTest, UnknownIsaSpecIsFatal)
{
    EXPECT_EXIT(simd::resolveIsa("turbo"),
                testing::ExitedWithCode(1),
                "not one of scalar\\|sse41\\|avx2\\|native");
}

TEST(SimdKernelsDeathTest, UnsupportedIsaSpecIsFatal)
{
    // Only exercisable when some compiled level is unsupported here
    // (e.g. an avx2 build running on an SSE-only box).
    bool anyUnsupported = false;
    for (simd::Isa isa :
         {simd::Isa::Scalar, simd::Isa::Sse41, simd::Isa::Avx2}) {
        if (simd::isaSupported(isa))
            continue;
        anyUnsupported = true;
        EXPECT_EXIT(simd::resolveIsa(simd::isaName(isa)),
                    testing::ExitedWithCode(1), "not available");
        EXPECT_EXIT(simd::setActiveIsa(isa),
                    testing::ExitedWithCode(1), "cannot activate");
    }
    if (!anyUnsupported)
        GTEST_SKIP() << "every compiled ISA level is supported here";
}

} // namespace
} // namespace texcache
