/** @file
 * Tests that the generated benchmark scenes match the paper's Table 4.1
 * characteristics (within the tolerance bands DESIGN.md commits to).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"
#include "scene/mesh_util.hh"
#include "thread_env.hh"

using namespace texcache;

namespace {

double
mb(uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv(uint64_t h, uint32_t word)
{
    return (h ^ word) * kFnvPrime;
}

/** FNV-1a over the r, g, b, a bytes of every texel: textures, then
 *  levels, then rows, in order. */
uint64_t
textureDigest(const Scene &s)
{
    uint64_t h = kFnvBasis;
    for (const MipMap &m : s.textures)
        for (unsigned l = 0; l < m.numLevels(); ++l)
            for (const Rgba8 &t : m.level(l).pixels())
                for (uint8_t byte : {t.r, t.g, t.b, t.a})
                    h = fnv(h, byte);
    return h;
}

/** FNV-1a folding each vertex's pos.xyz, uv.xy and shade bit patterns
 *  in as one 32-bit word each, vertex by vertex. */
uint64_t
geometryDigest(const Scene &s)
{
    uint64_t h = kFnvBasis;
    for (const SceneTriangle &t : s.triangles) {
        for (const SceneVertex &v : t.v) {
            for (float f : {v.pos.x, v.pos.y, v.pos.z, v.uv.x, v.uv.y,
                            v.shade}) {
                uint32_t bits;
                std::memcpy(&bits, &f, sizeof bits);
                h = fnv(h, bits);
            }
        }
    }
    return h;
}

} // namespace

TEST(Scenes, ContentIsPinnedAtAnyThreadCount)
{
    // Texel values never change an address, so no trace digest would
    // notice a generator that drifted; these constants pin every
    // texel and vertex of the four paper scenes instead, at one
    // worker (serial build) and at eight (texture fan-out).
    struct Pin
    {
        BenchScene scene;
        uint64_t textures;
        uint64_t geometry;
    };
    const Pin pins[] = {
        {BenchScene::Flight, 0x48642c80429c9af6ull, 0xac811113e5645eeeull},
        {BenchScene::Town, 0x4c2a2792942a0b54ull, 0xb16904a913c65b6cull},
        {BenchScene::Guitar, 0xf96df3fd83186385ull, 0xd477adc6d2f6f24eull},
        {BenchScene::Goblet, 0x200378751c372cdbull, 0xbbdfae0692eda63full},
    };
    for (const char *threads : {"1", "8"}) {
        ThreadEnv env(threads);
        for (const Pin &p : pins) {
            Scene s = makeScene(p.scene);
            EXPECT_EQ(textureDigest(s), p.textures)
                << s.name << " textures at " << threads << " threads";
            EXPECT_EQ(geometryDigest(s), p.geometry)
                << s.name << " geometry at " << threads << " threads";
        }
    }
}

TEST(Scenes, FlightMatchesTable41)
{
    Scene s = makeFlightScene();
    EXPECT_EQ(s.screenW, 1280u);
    EXPECT_EQ(s.screenH, 1024u);
    EXPECT_NEAR(s.triangles.size(), 9152.0, 9152.0 * 0.05);
    EXPECT_EQ(s.textures.size(), 15u);
    EXPECT_NEAR(mb(s.textureStorageBytes()), 56.0, 56.0 * 0.25);
}

TEST(Scenes, TownMatchesTable41)
{
    Scene s = makeTownScene();
    EXPECT_EQ(s.screenW, 1280u);
    EXPECT_NEAR(s.triangles.size(), 5317.0, 5317.0 * 0.05);
    EXPECT_EQ(s.textures.size(), 51u);
    EXPECT_NEAR(mb(s.textureStorageBytes()), 4.7, 4.7 * 0.25);
}

TEST(Scenes, GuitarMatchesTable41)
{
    Scene s = makeGuitarScene();
    EXPECT_EQ(s.screenW, 800u);
    EXPECT_NEAR(s.triangles.size(), 719.0, 719.0 * 0.05);
    EXPECT_EQ(s.textures.size(), 8u);
    EXPECT_NEAR(mb(s.textureStorageBytes()), 4.9, 4.9 * 0.25);
}

TEST(Scenes, GobletMatchesTable41)
{
    Scene s = makeGobletScene();
    EXPECT_EQ(s.screenW, 800u);
    EXPECT_EQ(s.triangles.size(), 7200u); // exactly 60 x 60 x 2
    EXPECT_EQ(s.textures.size(), 1u);
    EXPECT_NEAR(mb(s.textureStorageBytes()), 1.4, 1.4 * 0.25);
}

TEST(Scenes, AllTrianglesReferenceValidTextures)
{
    for (BenchScene b : allBenchScenes()) {
        Scene s = makeScene(b);
        for (const SceneTriangle &t : s.triangles)
            ASSERT_LT(t.texture, s.textures.size()) << s.name;
    }
}

TEST(Scenes, AllTexturesArePowerOfTwoMipped)
{
    for (BenchScene b : allBenchScenes()) {
        Scene s = makeScene(b);
        for (const MipMap &m : s.textures) {
            ASSERT_GE(m.numLevels(), 1u);
            ASSERT_EQ(m.width(m.numLevels() - 1), 1u);
            ASSERT_EQ(m.height(m.numLevels() - 1), 1u);
        }
    }
}

TEST(Scenes, PaperScanDirections)
{
    EXPECT_EQ(paperScanDirection(BenchScene::Town),
              ScanDirection::Vertical);
    EXPECT_EQ(paperScanDirection(BenchScene::Flight),
              ScanDirection::Horizontal);
    EXPECT_EQ(paperScanDirection(BenchScene::Guitar),
              ScanDirection::Horizontal);
    EXPECT_EQ(paperScanDirection(BenchScene::Goblet),
              ScanDirection::Horizontal);
}

TEST(Scenes, NamesAreStable)
{
    EXPECT_STREQ(benchSceneName(BenchScene::Flight), "Flight");
    EXPECT_STREQ(benchSceneName(BenchScene::Town), "Town");
    EXPECT_STREQ(benchSceneName(BenchScene::Guitar), "Guitar");
    EXPECT_STREQ(benchSceneName(BenchScene::Goblet), "Goblet");
}

TEST(MeshUtil, QuadPatchTriangleCount)
{
    Scene s;
    s.textures.emplace_back(Image(4, 4));
    unsigned n = addQuadPatch(s, 0, {0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                              {0, 1, 0}, {0, 0}, {1, 1}, 3, 5,
                              {0, 0, -1});
    EXPECT_EQ(n, 30u);
    EXPECT_EQ(s.triangles.size(), 30u);
}

TEST(MeshUtil, QuadPatchUvSpansRequestedRange)
{
    Scene s;
    s.textures.emplace_back(Image(4, 4));
    addQuadPatch(s, 0, {0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                 {0, 0}, {3, 2}, 2, 2, {0, 0, -1});
    float umax = 0, vmax = 0;
    for (const SceneTriangle &t : s.triangles)
        for (const SceneVertex &v : t.v) {
            umax = std::max(umax, v.uv.x);
            vmax = std::max(vmax, v.uv.y);
        }
    EXPECT_FLOAT_EQ(umax, 3.0f);
    EXPECT_FLOAT_EQ(vmax, 2.0f);
}

TEST(MeshUtil, LambertShadeBounds)
{
    EXPECT_NEAR(lambertShade({0, 1, 0}, {0, -1, 0}), 1.0f, 1e-5f);
    EXPECT_NEAR(lambertShade({0, 1, 0}, {0, 1, 0}), 0.35f, 1e-5f);
    float s = lambertShade({1, 1, 0}, {0, -1, 0});
    EXPECT_GT(s, 0.35f);
    EXPECT_LT(s, 1.0f);
}

TEST(WorstCaseScene, FillsTheScreenAtUnitTexelRatio)
{
    Scene s = makeWorstCaseScene(256, 128, 0.0f);
    RenderOptions opts;
    opts.writeFramebuffer = false;
    RenderOutput out = render(s, RasterOrder::horizontal(), opts);
    // The quad covers the viewport exactly once.
    EXPECT_EQ(out.stats.fragments, 128u * 128u);
    // ~1 texel/pixel: LOD straddles 0, so fragments are bilinear or
    // low-level trilinear, never deep in the pyramid.
    out.trace.forEach([&](const TexelRecord &r) {
        ASSERT_LE(r.level, 2);
    });
}

TEST(WorstCaseScene, RotationChangesTheAccessPattern)
{
    Scene a = makeWorstCaseScene(128, 128, 0.0f);
    Scene b = makeWorstCaseScene(128, 128, 0.7f);
    RenderOptions opts;
    opts.writeFramebuffer = false;
    RenderOutput oa = render(a, RasterOrder::horizontal(), opts);
    RenderOutput ob = render(b, RasterOrder::horizontal(), opts);
    EXPECT_EQ(oa.stats.fragments, ob.stats.fragments);
    // Different orientations touch different texel sequences.
    bool differs = false;
    size_t n = std::min(oa.trace.size(), ob.trace.size());
    for (size_t i = 0; i < n && !differs; i += 1009)
        differs = oa.trace[i].pack() != ob.trace[i].pack();
    EXPECT_TRUE(differs);
}
