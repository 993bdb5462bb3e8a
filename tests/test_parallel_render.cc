/**
 * @file
 * Byte-identity of the tile-parallel render engine (DESIGN.md
 * section 11): for every scene, raster order and thread count, the
 * engine's trace and statistics must equal the serial reference
 * renderer's bit for bit. Also covers render()'s routing (hooks go to
 * the reference path), that the engine refuses the options only the
 * reference implements, and the reference's repetition counts.
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
}

TEST(ParallelRender, QuadAllOrdersAllThreads)
{
    Scene scene = makeQuadTestScene(128, 128, 1.7f);
    std::vector<RasterOrder> orders = allOrders();
    for (const RasterOrder &order : edgeTiledOrders())
        orders.push_back(order);
    RenderOptions opts;
    opts.captureTrace = true;
    opts.writeFramebuffer = false;
    for (const RasterOrder &order : orders) {
        RenderOutput ref = renderReference(scene, order, opts);
        EXPECT_GT(ref.stats.fragments, 0u);

        for (const char *threads : {"1", "2", "4", "8"}) {
            ThreadEnv env(threads);
            RenderOutput out = renderTiled(scene, order, opts);
            expectIdentical(ref, out,
                            "quad order=" + order.str() +
                                " threads=" + threads);
        }
    }
}

/**
 * The paper scenes' byte-identity matrix: 4 scenes x 5 raster orders
 * x every ISA level compiled and supported on this host at {1, 8}
 * threads, and at {2, 4} threads too at the dispatched level. The
 * reference is the serial renderer, whose per-fragment path never
 * touches the SIMD span kernels, so any vectorization divergence -
 * float ordering, wrap handling, record packing - fails here.
 */
TEST(ParallelRender, FourScenesTraceOnlyIsaMatrix)
{
    RenderOptions opts;
    opts.captureTrace = true;
    opts.writeFramebuffer = false;

    IsaGuard guard;
    const simd::Isa dispatched = simd::activeIsa();
    for (BenchScene s : allBenchScenes()) {
        Scene scene = makeScene(s);
        for (const RasterOrder &order : allOrders()) {
            RenderOutput ref = renderReference(scene, order, opts);
            EXPECT_GT(ref.stats.fragments, 0u);

            for (simd::Isa isa : simd::supportedIsas()) {
                simd::setActiveIsa(isa);
                std::vector<const char *> threadCounts = {"1", "8"};
                if (isa == dispatched)
                    threadCounts = {"1", "2", "4", "8"};
                for (const char *threads : threadCounts) {
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
 * counter produced them. Only the reference renderer counts, so only
 * a pin catches a counting bug.
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
    opts.countRepetition = true;
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
    // Each option only the reference renderer implements is refused
    // by name.
    Scene scene = makeQuadTestScene();
    RenderOptions traceOnly;
    traceOnly.writeFramebuffer = false;

    RenderOptions framebuffer = traceOnly;
    framebuffer.writeFramebuffer = true;
    EXPECT_EXIT(renderTiled(scene, RasterOrder::horizontal(), framebuffer),
                testing::ExitedWithCode(1), "writeFramebuffer");
    RenderOptions counting = traceOnly;
    counting.countRepetition = true;
    EXPECT_EXIT(renderTiled(scene, RasterOrder::horizontal(), counting),
                testing::ExitedWithCode(1), "countRepetition");
    RenderOptions fragmentHook = traceOnly;
    fragmentHook.onFragment = [](const Fragment &, const SampleResult &,
                                 uint16_t) {};
    EXPECT_EXIT(renderTiled(scene, RasterOrder::horizontal(),
                            fragmentHook),
                testing::ExitedWithCode(1), "onFragment");
    RenderOptions vtHook = traceOnly;
    vtHook.vtResolve = [](uint16_t, float, float, float) {
        return VtDecision{};
    };
    EXPECT_EXIT(renderTiled(scene, RasterOrder::horizontal(), vtHook),
                testing::ExitedWithCode(1), "vtResolve");
}

} // namespace
} // namespace texcache
