/** @file Unit tests for OpenGL-conformant texture sampling and LOD. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "simd/isa.hh"
#include "simd/span_kernels.hh"
#include "texture/sampler.hh"

using namespace texcache;

namespace {

/** A 4x4 base image whose red channel encodes 16 * x + y. */
MipMap
gradientMip()
{
    Image base(4, 4);
    for (unsigned y = 0; y < 4; ++y)
        for (unsigned x = 0; x < 4; ++x)
            base.at(x, y) = {static_cast<uint8_t>(16 * x + y), 0, 0, 255};
    return MipMap(std::move(base));
}

} // namespace

TEST(Lod, IsLog2OfFootprint)
{
    // One texel per pixel -> lambda 0; two texels per pixel -> 1.
    EXPECT_NEAR(computeLod(1, 0, 0, 1), 0.0f, 1e-6f);
    EXPECT_NEAR(computeLod(2, 0, 0, 2), 1.0f, 1e-6f);
    EXPECT_NEAR(computeLod(4, 0, 0, 0), 2.0f, 1e-6f);
    // Magnification: half a texel per pixel -> -1.
    EXPECT_NEAR(computeLod(0.5f, 0, 0, 0.5f), -1.0f, 1e-6f);
}

TEST(Lod, TakesMaxOfAxes)
{
    EXPECT_NEAR(computeLod(8, 0, 0, 1), 3.0f, 1e-6f);
    EXPECT_NEAR(computeLod(0, 1, 8, 0), 3.0f, 1e-6f);
}

TEST(Lod, DegenerateFootprintIsVeryNegative)
{
    EXPECT_LT(computeLod(0, 0, 0, 0), -10.0f);
}

TEST(Sampler, BilinearTexelCenterIsExact)
{
    MipMap m = gradientMip();
    // Texel (2,1) center: u = (2 + 0.5)/4, v = (1 + 0.5)/4.
    TexelTouch touches[4];
    Vec4 c = sampleBilinearLevel(m, 0, 2.5f / 4, 1.5f / 4, touches);
    EXPECT_NEAR(c.x * 255.0f, 16 * 2 + 1, 0.51f);
    // All four touches surround/equal the texel (dedup not required).
    for (const TexelTouch &t : touches) {
        EXPECT_EQ(t.level, 0);
        EXPECT_LE(t.u, 3u);
        EXPECT_LE(t.v, 3u);
    }
}

TEST(Sampler, BilinearMidpointAverages)
{
    MipMap m = gradientMip();
    TexelTouch touches[4];
    // Halfway between texels (0,0) and (1,0): u = 1.0/4.
    Vec4 c = sampleBilinearLevel(m, 0, 1.0f / 4, 0.5f / 4, touches);
    float expect = (0 + 16) / 2.0f;
    EXPECT_NEAR(c.x * 255.0f, expect, 0.75f);
}

TEST(Sampler, RepeatWrapsNegativeAndLarge)
{
    MipMap m = gradientMip();
    TexelTouch t1[4], t2[4];
    Vec4 a = sampleBilinearLevel(m, 0, 0.3f, 0.6f, t1);
    Vec4 b = sampleBilinearLevel(m, 0, 0.3f + 3.0f, 0.6f - 2.0f, t2);
    EXPECT_NEAR(a.x, b.x, 1e-5f);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(t1[i].u, t2[i].u);
        EXPECT_EQ(t1[i].v, t2[i].v);
    }
}

TEST(Sampler, MagnificationUsesBilinearLevel0)
{
    MipMap m = gradientMip();
    SampleResult s = sampleMipMap(m, 0.5f, 0.5f, -2.0f);
    EXPECT_EQ(s.kind, FilterKind::Bilinear);
    EXPECT_EQ(s.numTouches, 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(s.touches[i].level, 0);
}

TEST(Sampler, MinificationTouchesTwoAdjacentLevels)
{
    MipMap m(Image(64, 64, Rgba8{200, 0, 0, 255}));
    SampleResult s = sampleMipMap(m, 0.4f, 0.7f, 2.5f);
    EXPECT_EQ(s.kind, FilterKind::Trilinear);
    EXPECT_EQ(s.numTouches, 8u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(s.touches[i].level, 2);
    for (unsigned i = 4; i < 8; ++i)
        EXPECT_EQ(s.touches[i].level, 3);
}

TEST(Sampler, LambdaClampsToCoarsestLevel)
{
    MipMap m(Image(16, 16, Rgba8{99, 0, 0, 255})); // levels 0..4
    SampleResult s = sampleMipMap(m, 0.5f, 0.5f, 100.0f);
    EXPECT_EQ(s.numTouches, 8u);
    // Still eight reads, from the two coarsest levels.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(s.touches[i].level, 3);
    for (unsigned i = 4; i < 8; ++i)
        EXPECT_EQ(s.touches[i].level, 4);
    EXPECT_NEAR(s.color.x * 255.0f, 99.0f, 0.51f);
}

TEST(Sampler, TrilinearBlendsBetweenLevels)
{
    // Level 0 = 2x2 red=0; level 1 (1x1) = red=0. Construct instead a
    // 2-level map where level 0 is 0 and level 1 averages to 60.
    Image base(2, 2);
    base.at(0, 0) = {0, 0, 0, 255};
    base.at(1, 0) = {40, 0, 0, 255};
    base.at(0, 1) = {80, 0, 0, 255};
    base.at(1, 1) = {120, 0, 0, 255};
    MipMap m(std::move(base));

    // lambda = 0.5: halfway between level 0 (bilinear at center = 60)
    // and level 1 (constant 60). At the exact center both levels give
    // the 4-texel average, so the blend must too.
    SampleResult s = sampleMipMap(m, 0.5f, 0.5f, 0.5f);
    EXPECT_NEAR(s.color.x * 255.0f, 60.0f, 1.0f);
}

TEST(Sampler, TrilinearConvergesToUpperLevelAsLambdaGrows)
{
    Image base(2, 2);
    base.at(0, 0) = {0, 0, 0, 255};
    base.at(1, 0) = {0, 0, 0, 255};
    base.at(0, 1) = {0, 0, 0, 255};
    base.at(1, 1) = {0, 0, 0, 255};
    MipMap m(std::move(base));
    // Upper (1x1) level is 0 as well; use corner sample where level 0
    // wraps: still 0. This degenerate check just asserts stability.
    SampleResult near0 = sampleMipMap(m, 0.1f, 0.1f, 0.01f);
    SampleResult near1 = sampleMipMap(m, 0.1f, 0.1f, 0.99f);
    EXPECT_NEAR(near0.color.x, near1.color.x, 1e-5f);
}

/** Property sweep: touch coordinates are always within level bounds. */
class SamplerBounds
    : public ::testing::TestWithParam<std::tuple<float, float, float>>
{};

TEST_P(SamplerBounds, TouchesInRange)
{
    static MipMap m(Image(32, 8, Rgba8{1, 2, 3, 255}));
    auto [u, v, lambda] = GetParam();
    SampleResult s = sampleMipMap(m, u, v, lambda);
    for (unsigned i = 0; i < s.numTouches; ++i) {
        const TexelTouch &t = s.touches[i];
        ASSERT_LT(t.level, m.numLevels());
        ASSERT_LT(t.u, m.width(t.level));
        ASSERT_LT(t.v, m.height(t.level));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerBounds,
    ::testing::Combine(::testing::Values(-1.7f, -0.01f, 0.0f, 0.42f,
                                         0.999f, 5.3f),
                       ::testing::Values(-2.0f, 0.0f, 0.5f, 0.9999f,
                                         17.0f),
                       ::testing::Values(-3.0f, 0.0f, 0.4f, 1.0f, 2.7f,
                                         4.9f, 50.0f)));

TEST(Sampler, ClampWrapPinsBorderTexels)
{
    MipMap m = gradientMip();
    TexelTouch t[4];
    // Far outside [0,1]: clamp pins to the border texel row/column.
    sampleBilinearLevel(m, 0, 2.5f, -1.0f, t, WrapMode::Clamp);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(t[i].u, 3u);
        EXPECT_EQ(t[i].v, 0u);
    }
}

TEST(Sampler, ClampAndRepeatAgreeInInterior)
{
    MipMap m = gradientMip();
    TexelTouch tr[4], tc[4];
    Vec4 a = sampleBilinearLevel(m, 0, 0.5f, 0.5f, tr,
                                 WrapMode::Repeat);
    Vec4 b = sampleBilinearLevel(m, 0, 0.5f, 0.5f, tc,
                                 WrapMode::Clamp);
    EXPECT_NEAR(a.x, b.x, 1e-6f);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(tr[i].u, tc[i].u);
        EXPECT_EQ(tr[i].v, tc[i].v);
    }
}

TEST(Sampler, ClampDiffersFromRepeatAtEdges)
{
    MipMap m = gradientMip();
    TexelTouch tr[4], tc[4];
    // u slightly past 1.0: repeat wraps to texel 0, clamp stays at 3.
    sampleBilinearLevel(m, 0, 0.999f, 0.5f, tr, WrapMode::Repeat);
    sampleBilinearLevel(m, 0, 0.999f, 0.5f, tc, WrapMode::Clamp);
    EXPECT_EQ(tr[1].u, 0u);
    EXPECT_EQ(tc[1].u, 3u);
}

TEST(Sampler, ClampTrilinearAndNearestModes)
{
    MipMap m(Image(16, 16, Rgba8{50, 0, 0, 255}));
    SampleResult tri =
        sampleMipMap(m, 3.0f, -2.0f, 1.5f, WrapMode::Clamp);
    for (unsigned i = 0; i < tri.numTouches; ++i) {
        EXPECT_EQ(tri.touches[i].u,
                  m.width(tri.touches[i].level) - 1);
        EXPECT_EQ(tri.touches[i].v, 0u);
    }
    SampleResult nst =
        sampleMipMapMode(m, 3.0f, -2.0f, 0.0f,
                         FilterMode::NearestMipNearest,
                         WrapMode::Clamp);
    EXPECT_EQ(nst.touches[0].u, 15u);
    EXPECT_EQ(nst.touches[0].v, 0u);
}

TEST(Sampler, SimdBatchesMatchScalarKernel)
{
    // Randomized fragment batches through the SIMD span kernels
    // (simd/span_kernels.hh) for every compiled ISA level, compared
    // lane for lane against the scalar kernel on synthetic attribute
    // planes - unconstrained by real triangle geometry, and always
    // including unaligned tails (n % lanes != 0).
    MipMap mips[2] = {gradientMip(),
                      MipMap(Image(64, 16, Rgba8{9, 9, 9, 255}))};
    const FilterMode modes[] = {FilterMode::Trilinear,
                                FilterMode::BilinearMipNearest,
                                FilterMode::NearestMipNearest};
    const WrapMode wraps[] = {WrapMode::Repeat, WrapMode::Clamp};
    const simd::SpanKernels *scalar = simd::scalarKernels();
    ASSERT_NE(scalar, nullptr);

    uint32_t x = 0xfeedbeef;
    auto rnd = [&] {
        x = x * 1664525u + 1013904223u;
        return static_cast<float>(x >> 8) / static_cast<float>(1 << 24);
    };
    for (int iter = 0; iter < 400; ++iter) {
        const MipMap &m = mips[iter & 1];
        simd::SpanContext ctx{};
        // 1/w plane kept strictly positive over the pixel range so
        // every lane holds a renderable fragment.
        ctx.iwE0 = 1.5f + rnd() * 1.5f;
        ctx.iwEx = (rnd() - 0.5f) * 0.02f;
        ctx.iwEy = (rnd() - 0.5f) * 0.02f;
        ctx.uwE0 = (rnd() - 0.5f) * 4.0f;
        ctx.uwEx = (rnd() - 0.5f) * 0.1f;
        ctx.uwEy = (rnd() - 0.5f) * 0.1f;
        ctx.vwE0 = (rnd() - 0.5f) * 4.0f;
        ctx.vwEx = (rnd() - 0.5f) * 0.1f;
        ctx.vwEy = (rnd() - 0.5f) * 0.1f;
        ctx.texW = static_cast<float>(m.width(0));
        ctx.texH = static_cast<float>(m.height(0));
        ctx.mip = &m;
        ctx.texture = static_cast<uint16_t>(iter % 2048);
        ctx.mode = modes[iter % 3];
        ctx.wrap = wraps[(iter / 3) % 2];

        int n = 1 + static_cast<int>(rnd() * 7.99f); // 1..8
        int32_t xs[simd::kSpanBatch], ys[simd::kSpanBatch];
        for (int i = 0; i < n; ++i) {
            xs[i] = static_cast<int32_t>(rnd() * 64.0f);
            ys[i] = static_cast<int32_t>(rnd() * 64.0f);
        }

        simd::SpanBatchOut ref;
        scalar->touches(ctx, xs, ys, n, ref);
        for (simd::Isa isa : simd::supportedIsas()) {
            if (isa == simd::Isa::Scalar)
                continue;
            simd::SpanBatchOut out;
            simd::kernelsFor(isa)->touches(ctx, xs, ys, n, out);
            for (int i = 0; i < n; ++i) {
                SCOPED_TRACE(std::string("iter ") +
                             std::to_string(iter) + " isa=" +
                             simd::isaName(isa) + " lane " +
                             std::to_string(i) + " of " +
                             std::to_string(n));
                ASSERT_EQ(out.kind[i], ref.kind[i]);
                ASSERT_EQ(out.numTouches[i], ref.numTouches[i]);
                ASSERT_EQ(out.firstLevel[i], ref.firstLevel[i]);
                ASSERT_EQ(out.firstU[i], ref.firstU[i]);
                ASSERT_EQ(out.firstV[i], ref.firstV[i]);
                ASSERT_EQ(out.recEnd[i], ref.recEnd[i]);
            }
            ASSERT_EQ(0, std::memcmp(out.records, ref.records,
                                     ref.recEnd[n - 1] *
                                         sizeof(uint64_t)))
                << "iter " << iter << " isa=" << simd::isaName(isa)
                << ": packed records diverged";
        }
    }
}
