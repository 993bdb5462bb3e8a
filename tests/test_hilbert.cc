/** @file
 * Tests for Peano-Hilbert indexing and the Hilbert rasterization order
 * (the paper's footnote-1 extension).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "core/experiment.hh"
#include "raster/hilbert.hh"
#include "raster/rasterizer.hh"

using namespace texcache;

TEST(Hilbert, IndexPointRoundTrip)
{
    for (unsigned k : {1u, 3u, 6u}) {
        uint64_t n = 1ULL << k;
        std::set<uint64_t> seen;
        for (uint32_t y = 0; y < n; ++y) {
            for (uint32_t x = 0; x < n; ++x) {
                uint64_t d = hilbertIndex(k, x, y);
                ASSERT_LT(d, n * n);
                ASSERT_TRUE(seen.insert(d).second)
                    << "duplicate index at (" << x << "," << y << ")";
                uint32_t rx, ry;
                hilbertPoint(k, d, rx, ry);
                ASSERT_EQ(rx, x);
                ASSERT_EQ(ry, y);
            }
        }
    }
}

TEST(Hilbert, ConsecutiveIndicesAreAdjacentCells)
{
    // The defining property of the curve: distance-1 steps move to a
    // 4-connected neighbor.
    unsigned k = 5;
    uint64_t n = 1ULL << k;
    uint32_t px, py;
    hilbertPoint(k, 0, px, py);
    for (uint64_t d = 1; d < n * n; ++d) {
        uint32_t x, y;
        hilbertPoint(k, d, x, y);
        int manhattan = std::abs(static_cast<int>(x) -
                                 static_cast<int>(px)) +
                        std::abs(static_cast<int>(y) -
                                 static_cast<int>(py));
        ASSERT_EQ(manhattan, 1) << "jump at d=" << d;
        px = x;
        py = y;
    }
}

TEST(HilbertOrder, VisitsSamePixelSetAsScan)
{
    PixelRect r{3, 7, 40, 29};
    std::set<std::pair<int, int>> scan, hilbert;
    traverseRect(r, RasterOrder::horizontal(),
                 [&](int x, int y) { scan.insert({x, y}); });
    traverseRect(r, RasterOrder::hilbertOrder(),
                 [&](int x, int y) { hilbert.insert({x, y}); });
    EXPECT_EQ(scan, hilbert);
}

TEST(HilbertOrder, NoDuplicateVisits)
{
    PixelRect r{0, 0, 31, 31};
    unsigned count = 0;
    traverseRect(r, RasterOrder::hilbertOrder(),
                 [&](int, int) { ++count; });
    EXPECT_EQ(count, 32u * 32u);
}

TEST(HilbertOrder, StringName)
{
    EXPECT_EQ(RasterOrder::hilbertOrder().str(), "hilbert");
}

TEST(HilbertOrder, ShrinksSmallCacheMissRateOnBigQuad)
{
    // Footnote 1's claim, made executable: on a screen-filling quad,
    // the Hilbert path's working set beats row-major scan at small
    // cache sizes (and cold misses are identical).
    Scene scene = makeQuadTestScene(512, 256);
    RenderOutput scan_out = render(scene, RasterOrder::horizontal());
    RenderOutput hil_out = render(scene, RasterOrder::hilbertOrder());
    ASSERT_EQ(scan_out.trace.size(), hil_out.trace.size());

    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    p.blockW = p.blockH = 4;
    SceneLayout layout(scene, p);
    ShardedStackProfile scan_prof = profileTrace(scan_out.trace, layout,
                                               64);
    ShardedStackProfile hil_prof = profileTrace(hil_out.trace, layout,
                                              64);
    EXPECT_EQ(scan_prof.coldMisses(), hil_prof.coldMisses());
    EXPECT_LT(hil_prof.missRate(2048),
              scan_prof.missRate(2048) * 1.001);
    EXPECT_LT(hil_prof.missRate(1024), scan_prof.missRate(1024));
}
