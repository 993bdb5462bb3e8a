/** @file
 * Cross-product robustness matrix: every memory representation under
 * every rasterization order under several cache organizations, on one
 * scene. Checks the conservation invariants that let the figure
 * sweeps be compared at all:
 *
 *  - the texel-access count depends only on the scene (not the order),
 *  - the address count per representation is access count times its
 *    accesses-per-texel,
 *  - cold misses never exceed total misses, misses never exceed
 *    accesses,
 *  - a fully associative cache never misses more than a direct-mapped
 *    cache of the same size on these traces,
 *  - every representation reaches the same unique-texel floor.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/scene_layout.hh"

using namespace texcache;

namespace {

struct Fixture
{
    Scene scene = makeQuadTestScene(128, 128, 1.7f);
    std::map<std::string, RenderOutput> outputs;

    const RenderOutput &
    output(const RasterOrder &order)
    {
        auto it = outputs.find(order.str());
        if (it == outputs.end()) {
            RenderOptions opts;
            opts.writeFramebuffer = false;
            it = outputs
                     .emplace(order.str(), render(scene, order, opts))
                     .first;
        }
        return it->second;
    }
};

Fixture &
fix()
{
    static Fixture f;
    return f;
}

std::vector<RasterOrder>
allOrders()
{
    return {RasterOrder::horizontal(), RasterOrder::vertical(),
            RasterOrder::tiledOrder(8, 8),
            RasterOrder::tiledOrder(16, 16, ScanDirection::Vertical),
            RasterOrder::hilbertOrder()};
}

} // namespace

class LayoutOrderMatrix
    : public ::testing::TestWithParam<std::tuple<LayoutKind, int>>
{};

TEST_P(LayoutOrderMatrix, ConservationInvariantsHold)
{
    auto [kind, order_idx] = GetParam();
    RasterOrder order = allOrders()[static_cast<size_t>(order_idx)];
    const RenderOutput &out = fix().output(order);

    // Access count is order-invariant.
    const RenderOutput &ref = fix().output(RasterOrder::horizontal());
    ASSERT_EQ(out.trace.size(), ref.trace.size());

    LayoutParams params;
    params.kind = kind;
    params.blockW = params.blockH = 4;
    SceneLayout layout(fix().scene, params);
    unsigned per_texel = layout.layout(0).cost().accessesPerTexel;

    for (CacheConfig cache :
         {CacheConfig{4 * 1024, 32, 1}, CacheConfig{4 * 1024, 32, 2},
          CacheConfig{4 * 1024, 32, CacheConfig::kFullyAssoc},
          CacheConfig{32 * 1024, 128, 2}}) {
        CacheStats stats = runCache(out.trace, layout, cache);
        ASSERT_EQ(stats.accesses, out.trace.size() * per_texel)
            << cache.str();
        ASSERT_LE(stats.misses, stats.accesses) << cache.str();
        ASSERT_LE(stats.coldMisses, stats.misses) << cache.str();
        ASSERT_GT(stats.misses, 0u) << cache.str();
    }

    // Cold misses (unique lines) are identical at equal line size no
    // matter the cache organization.
    CacheStats a = runCache(out.trace, layout, {2048, 64, 1});
    CacheStats b = runCache(out.trace, layout,
                            {65536, 64, CacheConfig::kFullyAssoc});
    ASSERT_EQ(a.coldMisses, b.coldMisses);

    // LRU stack property at the same geometry: FA misses <= DM misses
    // holds on these local traces.
    CacheStats dm = runCache(out.trace, layout, {8192, 64, 1});
    CacheStats fa = runCache(out.trace, layout,
                             {8192, 64, CacheConfig::kFullyAssoc});
    ASSERT_LE(fa.misses, dm.misses);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, LayoutOrderMatrix,
    ::testing::Combine(
        ::testing::Values(LayoutKind::Williams, LayoutKind::Nonblocked,
                          LayoutKind::Blocked,
                          LayoutKind::PaddedBlocked,
                          LayoutKind::Blocked6D,
                          LayoutKind::CompressedBlocked),
        ::testing::Range(0, 5)));

TEST(LayoutOrderMatrix, UniqueTexelFloorIsLayoutInvariant)
{
    // All single-access layouts agree on the number of unique texel
    // *coordinates*; their unique line counts differ, but at texel
    // granularity (4B lines are nonsensical for caches, exact for
    // this check via cold misses at texel-sized lines... use 16B to
    // stay above the 4B texel) the blocked family must agree exactly
    // with nonblocked.
    const RenderOutput &out = fix().output(RasterOrder::horizontal());
    std::vector<LayoutKind> kinds = {LayoutKind::Nonblocked,
                                     LayoutKind::Blocked,
                                     LayoutKind::PaddedBlocked,
                                     LayoutKind::Blocked6D};
    uint64_t ref = 0;
    for (LayoutKind k : kinds) {
        LayoutParams p;
        p.kind = k;
        p.blockW = p.blockH = 4;
        SceneLayout layout(fix().scene, p);
        // 4-byte lines = exactly one texel per line: cold misses ==
        // unique texels, whatever the arrangement.
        ShardedStackProfile prof = profileTrace(out.trace, layout, 4);
        if (ref == 0)
            ref = prof.coldMisses();
        EXPECT_EQ(prof.coldMisses(), ref) << layoutKindName(k);
    }
    EXPECT_GT(ref, 0u);
}
