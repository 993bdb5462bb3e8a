/** @file Integration tests for the software pipeline renderer. */

#include <gtest/gtest.h>

#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"
#include "trace/trace_stats.hh"

using namespace texcache;

TEST(Renderer, QuadSceneCoversExpectedFragments)
{
    Scene scene = makeQuadTestScene(64, 128);
    RenderOutput out = render(scene, RasterOrder::horizontal());
    // The unit quad at z=0 viewed from distance 2.2 with fov ~57deg
    // covers a large centered square; sanity-band the count.
    EXPECT_GT(out.stats.fragments, 3000u);
    EXPECT_LT(out.stats.fragments, 128u * 128u);
    EXPECT_EQ(out.stats.trianglesIn, 2u);
    EXPECT_EQ(out.stats.trianglesRasterized, 2u);
}

TEST(Renderer, TraceSizeMatchesTexelAccesses)
{
    Scene scene = makeQuadTestScene(64, 128);
    RenderOutput out = render(scene, RasterOrder::horizontal());
    EXPECT_EQ(out.trace.size(), out.stats.texelAccesses);
    EXPECT_EQ(out.stats.fragments,
              out.stats.bilinearFragments +
                  out.stats.trilinearFragments);
    // Accesses = 4 * bilinear + 8 * trilinear fragments.
    EXPECT_EQ(out.stats.texelAccesses,
              4 * out.stats.bilinearFragments +
                  8 * out.stats.trilinearFragments);
}

TEST(Renderer, DeterministicAcrossRuns)
{
    Scene scene = makeQuadTestScene(32, 64);
    RenderOutput a = render(scene, RasterOrder::horizontal());
    RenderOutput b = render(scene, RasterOrder::horizontal());
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); i += 97) {
        EXPECT_EQ(a.trace[i].pack(), b.trace[i].pack());
    }
}

TEST(Renderer, RasterOrderChangesTraceOrderNotContent)
{
    Scene scene = makeQuadTestScene(64, 128);
    RenderOutput h = render(scene, RasterOrder::horizontal());
    RenderOutput v = render(scene, RasterOrder::vertical());
    EXPECT_EQ(h.trace.size(), v.trace.size());
    EXPECT_EQ(h.stats.fragments, v.stats.fragments);
    // Same unique texels in both orders.
    TraceStats hs = analyzeTrace(h.trace);
    TraceStats vs = analyzeTrace(v.trace);
    EXPECT_EQ(hs.trilinearLower.uniqueTexels,
              vs.trilinearLower.uniqueTexels);
    EXPECT_EQ(hs.bilinear.uniqueTexels, vs.bilinear.uniqueTexels);
}

TEST(Renderer, MagnifiedQuadUsesBilinear)
{
    // Tiny texture on a big screen -> magnification everywhere.
    Scene scene = makeQuadTestScene(8, 256);
    RenderOutput out = render(scene, RasterOrder::horizontal());
    EXPECT_GT(out.stats.bilinearFragments, 0u);
    EXPECT_EQ(out.stats.trilinearFragments, 0u);
}

TEST(Renderer, MinifiedQuadUsesTrilinear)
{
    // Big texture on a small screen -> minification everywhere.
    Scene scene = makeQuadTestScene(512, 64);
    RenderOutput out = render(scene, RasterOrder::horizontal());
    EXPECT_GT(out.stats.trilinearFragments, 0u);
    EXPECT_EQ(out.stats.bilinearFragments, 0u);
}

TEST(Renderer, RepeatedUvRaisesRepetitionFactor)
{
    Scene once = makeQuadTestScene(64, 128, /*uv_repeat=*/1.0f);
    Scene thrice = makeQuadTestScene(64, 128, /*uv_repeat=*/3.0f);
    RenderOptions opts;
    opts.countRepetition = true;
    RenderOutput a = render(once, RasterOrder::horizontal(), opts);
    RenderOutput b = render(thrice, RasterOrder::horizontal(), opts);
    EXPECT_LT(a.repetition.repetitionFactor(), 1.3);
    EXPECT_GT(b.repetition.repetitionFactor(), 2.0);
}

TEST(Renderer, OccludedFragmentsStillGenerateTexelTraffic)
{
    // Two identical quads, the second behind the first: fragments and
    // texture accesses double even though the image is unchanged
    // (hidden surface removal happens after texturing, Fig 2.1).
    Scene scene = makeQuadTestScene(64, 128);
    Scene two = scene;
    for (const SceneTriangle &t : scene.triangles) {
        SceneTriangle back = t;
        for (int i = 0; i < 3; ++i)
            back.v[i].pos.z -= 0.5f; // push away from the camera
        two.triangles.push_back(back);
    }
    RenderOutput one_out = render(scene, RasterOrder::horizontal());
    RenderOutput two_out = render(two, RasterOrder::horizontal());
    EXPECT_GT(two_out.stats.fragments,
              one_out.stats.fragments * 3 / 2);
    EXPECT_GT(two_out.trace.size(), one_out.trace.size() * 3 / 2);
}

TEST(Renderer, DepthTestKeepsNearestColor)
{
    // Render a red quad in front of a blue quad and check the
    // framebuffer center is red regardless of submission order.
    auto build = [](bool red_first) {
        Scene s;
        s.name = "depth";
        s.screenW = s.screenH = 64;
        s.textures.emplace_back(
            Image(8, 8, Rgba8{255, 0, 0, 255})); // red
        s.textures.emplace_back(
            Image(8, 8, Rgba8{0, 0, 255, 255})); // blue
        auto quad = [&](uint16_t tex, float z) {
            SceneVertex v0{{-1, -1, z}, {0, 0}, 1.0f};
            SceneVertex v1{{1, -1, z}, {1, 0}, 1.0f};
            SceneVertex v2{{1, 1, z}, {1, 1}, 1.0f};
            SceneVertex v3{{-1, 1, z}, {0, 1}, 1.0f};
            s.triangles.push_back({{v0, v1, v2}, tex});
            s.triangles.push_back({{v0, v2, v3}, tex});
        };
        if (red_first) {
            quad(0, 0.5f);  // nearer (camera at +z)
            quad(1, -0.5f);
        } else {
            quad(1, -0.5f);
            quad(0, 0.5f);
        }
        s.view = Mat4::lookAt({0, 0, 3}, {0, 0, 0}, {0, 1, 0});
        s.proj = Mat4::perspective(1.0f, 1.0f, 0.1f, 10.0f);
        return s;
    };
    for (bool red_first : {true, false}) {
        RenderOutput out = render(build(red_first),
                                  RasterOrder::horizontal());
        Rgba8 center = out.framebuffer.at(32, 32);
        EXPECT_GT(center.r, 150) << "red_first=" << red_first;
        EXPECT_LT(center.b, 100) << "red_first=" << red_first;
    }
}

TEST(Renderer, OptionsDisableCapture)
{
    Scene scene = makeQuadTestScene(32, 64);
    RenderOptions opts;
    opts.captureTrace = false;
    opts.writeFramebuffer = false;
    RenderOutput out = render(scene, RasterOrder::horizontal(), opts);
    EXPECT_TRUE(out.trace.empty());
    EXPECT_TRUE(out.framebuffer.empty());
    EXPECT_GT(out.stats.fragments, 0u); // stats still collected
}
