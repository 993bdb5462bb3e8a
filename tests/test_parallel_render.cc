/**
 * @file
 * Byte-identity of the tile-parallel render engine (DESIGN.md
 * section 11): for every scene, raster order and thread count, the
 * engine's trace, framebuffer and statistics must equal the serial
 * reference renderer's bit for bit. Also covers render()'s routing
 * (hooks go to the reference path) and that the engine refuses hooks.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/renderer.hh"
#include "pipeline/tile_render.hh"
#include "scene/benchmarks.hh"
#include "simd/isa.hh"
#include "thread_env.hh"

namespace texcache {
namespace {

/** Scoped SIMD ISA-level override (restores the prior level). */
class IsaGuard
{
  public:
    IsaGuard() : saved_(simd::activeIsa()) {}
    ~IsaGuard() { simd::setActiveIsa(saved_); }

  private:
    simd::Isa saved_;
};

std::vector<RasterOrder>
allOrders()
{
    return {RasterOrder::horizontal(), RasterOrder::vertical(),
            RasterOrder::tiledOrder(8, 8),
            RasterOrder::tiledOrder(16, 16, ScanDirection::Vertical),
            RasterOrder::hilbertOrder()};
}

/** Tiled orders at the edges of the work-unit decomposition: tiles
 *  that do not divide the screen, a vertical non-square tile whose
 *  units hold two tiles, and a tile larger than the 128-px screen. */
std::vector<RasterOrder>
edgeTiledOrders()
{
    return {RasterOrder::tiledOrder(7, 5),
            RasterOrder::tiledOrder(24, 40, ScanDirection::Vertical),
            RasterOrder::tiledOrder(256, 256)};
}

/** Assert @p out is byte-identical to the reference output @p ref. */
void
expectIdentical(const RenderOutput &ref, const RenderOutput &out,
                const std::string &what)
{
    SCOPED_TRACE(what);

    // Trace: the packed 64-bit records must match element for element.
    ASSERT_EQ(ref.trace.packed().size(), out.trace.packed().size());
    EXPECT_TRUE(ref.trace.packed() == out.trace.packed())
        << "texel trace diverged";

    // Framebuffer: every pixel.
    ASSERT_EQ(ref.framebuffer.width(), out.framebuffer.width());
    ASSERT_EQ(ref.framebuffer.height(), out.framebuffer.height());
    for (unsigned y = 0; y < ref.framebuffer.height(); ++y)
        for (unsigned x = 0; x < ref.framebuffer.width(); ++x)
            ASSERT_TRUE(ref.framebuffer.texel(x, y) ==
                        out.framebuffer.texel(x, y))
                << "pixel (" << x << ", " << y << ") diverged";

    // Statistics: integer counters and exact doubles.
    EXPECT_EQ(ref.stats.trianglesIn, out.stats.trianglesIn);
    EXPECT_EQ(ref.stats.trianglesculled, out.stats.trianglesculled);
    EXPECT_EQ(ref.stats.trianglesRasterized,
              out.stats.trianglesRasterized);
    EXPECT_EQ(ref.stats.fragments, out.stats.fragments);
    EXPECT_EQ(ref.stats.texelAccesses, out.stats.texelAccesses);
    EXPECT_EQ(ref.stats.bilinearFragments, out.stats.bilinearFragments);
    EXPECT_EQ(ref.stats.trilinearFragments,
              out.stats.trilinearFragments);
    EXPECT_EQ(ref.stats.nearestFragments, out.stats.nearestFragments);
    EXPECT_EQ(ref.stats.sumCoveredArea, out.stats.sumCoveredArea);
    EXPECT_EQ(ref.stats.sumBoxWidth, out.stats.sumBoxWidth);
    EXPECT_EQ(ref.stats.sumBoxHeight, out.stats.sumBoxHeight);
    EXPECT_EQ(ref.stats.boxSamples, out.stats.boxSamples);

    // LOD histogram: every bucket plus the moments.
    EXPECT_EQ(ref.stats.lodLevels.count(), out.stats.lodLevels.count());
    EXPECT_EQ(ref.stats.lodLevels.sum(), out.stats.lodLevels.sum());
    EXPECT_EQ(ref.stats.lodLevels.min(), out.stats.lodLevels.min());
    EXPECT_EQ(ref.stats.lodLevels.max(), out.stats.lodLevels.max());
    for (unsigned b = 0; b < stats::Distribution::kBuckets; ++b)
        EXPECT_EQ(ref.stats.lodLevels.bucket(b),
                  out.stats.lodLevels.bucket(b))
            << "lod bucket " << b;

    // Repetition counter: both sets are unions of the same fragment
    // keys, so equal cardinalities mean equal sets.
    EXPECT_EQ(ref.repetition.uniqueWrapped(),
              out.repetition.uniqueWrapped());
    EXPECT_EQ(ref.repetition.uniqueUnwrapped(),
              out.repetition.uniqueUnwrapped());
}

TEST(ParallelRender, QuadAllOrdersAllThreads)
{
    // Framebuffer renders take the scalar walkers, trace-only renders
    // the SIMD span kernels of the dispatched ISA level.
    Scene scene = makeQuadTestScene(128, 128, 1.7f);
    std::vector<RasterOrder> orders = allOrders();
    for (const RasterOrder &order : edgeTiledOrders())
        orders.push_back(order);
    for (bool framebuffer : {true, false}) {
        RenderOptions opts;
        opts.captureTrace = true;
        opts.writeFramebuffer = framebuffer;
        opts.countRepetition = true;
        for (const RasterOrder &order : orders) {
            RenderOutput ref = renderReference(scene, order, opts);
            EXPECT_GT(ref.stats.fragments, 0u);

            for (const char *threads : {"1", "2", "4", "8"}) {
                ThreadEnv env(threads);
                RenderOutput out = renderTiled(scene, order, opts);
                expectIdentical(ref, out,
                                "quad order=" + order.str() +
                                    " framebuffer=" +
                                    std::to_string(framebuffer) +
                                    " threads=" + threads);
            }
        }
    }
}

TEST(ParallelRender, FourScenesAllOrders)
{
    RenderOptions opts;
    opts.captureTrace = true;
    opts.writeFramebuffer = true;
    opts.countRepetition = true;

    for (BenchScene s : allBenchScenes()) {
        Scene scene = makeScene(s);
        for (const RasterOrder &order : allOrders()) {
            RenderOutput ref = renderReference(scene, order, opts);

            for (const char *threads : {"2", "4", "8"}) {
                ThreadEnv env(threads);
                RenderOutput out = renderTiled(scene, order, opts);
                expectIdentical(ref, out,
                                std::string(benchSceneName(s)) +
                                    " order=" + order.str() +
                                    " threads=" + threads);
            }
        }
    }
}

/**
 * The ISSUE 7 byte-identity matrix: 4 scenes x 5 raster orders x
 * {1, 8} threads x every ISA level compiled and supported on this
 * host, in the trace-only configuration that engages the SIMD span
 * kernels (writeFramebuffer = false, as TraceStore renders). The
 * reference is the serial renderer, whose per-fragment path never
 * touches the kernels, so any vectorization divergence - float
 * ordering, wrap handling, record packing, repetition anchors -
 * fails here.
 */
TEST(ParallelRender, FourScenesTraceOnlyIsaMatrix)
{
    RenderOptions opts;
    opts.captureTrace = true;
    opts.writeFramebuffer = false;
    opts.countRepetition = true;

    IsaGuard guard;
    for (BenchScene s : allBenchScenes()) {
        Scene scene = makeScene(s);
        for (const RasterOrder &order : allOrders()) {
            RenderOutput ref = renderReference(scene, order, opts);
            EXPECT_GT(ref.stats.fragments, 0u);

            for (simd::Isa isa : simd::supportedIsas()) {
                simd::setActiveIsa(isa);
                for (const char *threads : {"1", "8"}) {
                    ThreadEnv env(threads);
                    RenderOutput out = renderTiled(scene, order, opts);
                    expectIdentical(ref, out,
                                    std::string(benchSceneName(s)) +
                                        " order=" + order.str() +
                                        " isa=" + simd::isaName(isa) +
                                        " threads=" + threads);
                }
            }
        }
    }
}

/**
 * The repetition counts of the paper scenes in their paper scan
 * order (the section 3.1.2 factors), pinned as the unordered-set
 * counter produced them. The identity tests above compare two
 * renders that share RepetitionCounter, so only a pin catches a
 * counting bug common to both paths.
 */
TEST(ParallelRender, PaperSceneRepetitionCountsArePinned)
{
    struct Pin
    {
        BenchScene scene;
        uint64_t unwrapped;
        uint64_t wrapped;
    };
    const Pin pins[] = {{BenchScene::Flight, 517068, 516875},
                        {BenchScene::Town, 673774, 254672},
                        {BenchScene::Guitar, 227352, 215895},
                        {BenchScene::Goblet, 136578, 135678}};
    RenderOptions opts;
    opts.writeFramebuffer = false;
    opts.captureTrace = false;
    for (const Pin &pin : pins) {
        RasterOrder order = paperScanDirection(pin.scene) ==
                                    ScanDirection::Horizontal
                                ? RasterOrder::horizontal()
                                : RasterOrder::vertical();
        RenderOutput out = render(makeScene(pin.scene), order, opts);
        EXPECT_EQ(out.repetition.uniqueUnwrapped(), pin.unwrapped)
            << benchSceneName(pin.scene);
        EXPECT_EQ(out.repetition.uniqueWrapped(), pin.wrapped)
            << benchSceneName(pin.scene);
    }
}

TEST(ParallelRender, RenderRoutesHooksToReference)
{
    Scene scene = makeQuadTestScene();
    RenderOptions opts;
    opts.writeFramebuffer = false;
    uint64_t hookCalls = 0;
    opts.onFragment = [&](const Fragment &, const SampleResult &,
                          uint16_t) { ++hookCalls; };

    ThreadEnv env("4");
    RenderOutput out = render(scene, RasterOrder::horizontal(), opts);
    // render() must take the serial path so the hook observes every
    // fragment in traversal order.
    EXPECT_EQ(hookCalls, out.stats.fragments);
    EXPECT_GT(hookCalls, 0u);
}

using ParallelRenderDeathTest = ::testing::Test;

TEST(ParallelRenderDeathTest, RenderTiledWithHooksIsFatal)
{
    Scene scene = makeQuadTestScene();
    RenderOptions fragmentHook;
    fragmentHook.onFragment = [](const Fragment &, const SampleResult &,
                                 uint16_t) {};
    EXPECT_EXIT(renderTiled(scene, RasterOrder::horizontal(),
                            fragmentHook),
                testing::ExitedWithCode(1), "hooks");
    RenderOptions vtHook;
    vtHook.vtResolve = [](uint16_t, float, float, float) {
        return VtDecision{};
    };
    EXPECT_EXIT(renderTiled(scene, RasterOrder::horizontal(), vtHook),
                testing::ExitedWithCode(1), "hooks");
}

} // namespace
} // namespace texcache
