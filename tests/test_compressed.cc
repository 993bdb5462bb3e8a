/** @file Tests for the compressed blocked layout (section 8 extension). */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "layout/layout.hh"

using namespace texcache;

namespace {

LayoutParams
compressed(unsigned block, unsigned ratio)
{
    LayoutParams p;
    p.kind = LayoutKind::CompressedBlocked;
    p.blockW = p.blockH = block;
    p.compressionRatio = ratio;
    return p;
}

std::vector<LevelDims>
pyramid(unsigned w, unsigned h)
{
    std::vector<LevelDims> d;
    while (true) {
        d.push_back({w, h});
        if (w == 1 && h == 1)
            break;
        w = w > 1 ? w / 2 : 1;
        h = h > 1 ? h / 2 : 1;
    }
    return d;
}

} // namespace

TEST(Compressed, FootprintShrinksByRatio)
{
    AddressSpace s1, s2;
    TextureLayout plain(
        {.kind = LayoutKind::Blocked, .blockW = 8, .blockH = 8},
        pyramid(256, 256), s1);
    TextureLayout comp(compressed(8, 8), pyramid(256, 256), s2);
    // Per-level allocation alignment (4 KB) adds slack on top of the
    // 8:1 payload reduction; require at least ~4x overall.
    EXPECT_LT(comp.footprint(), plain.footprint() / 4);
}

TEST(Compressed, RejectsBadRatio)
{
    AddressSpace s;
    EXPECT_EXIT(TextureLayout(compressed(8, 3), pyramid(64, 64), s),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(TextureLayout(compressed(8, 1), pyramid(64, 64), s),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(Compressed, RatioTexelsShareBytes)
{
    // 8:1 over 8x8 blocks: the 64 texels of a block map onto 32 bytes,
    // i.e. exactly 8 texels per 4-byte granule.
    AddressSpace s;
    TextureLayout lay(compressed(8, 8), pyramid(64, 64), s);
    std::map<Addr, unsigned> per_addr;
    for (unsigned v = 0; v < 8; ++v)
        for (unsigned u = 0; u < 8; ++u) {
            Addr a[3];
            lay.addresses({0, static_cast<uint16_t>(u),
                           static_cast<uint16_t>(v)},
                          a);
            ++per_addr[a[0]];
        }
    // The block compresses 256 B -> 32 B: the 64 texels' byte offsets
    // scale onto 32 distinct stored bytes, two texels per byte.
    EXPECT_EQ(per_addr.size(), 32u);
    for (const auto &[addr, count] : per_addr)
        EXPECT_EQ(count, 2u) << "addr " << addr;
}

TEST(Compressed, BlocksRemainDisjoint)
{
    AddressSpace s;
    TextureLayout lay(compressed(8, 4), pyramid(64, 64), s);
    // Distinct blocks never share addresses.
    std::set<Addr> block_a, block_b;
    for (unsigned v = 0; v < 8; ++v)
        for (unsigned u = 0; u < 8; ++u) {
            Addr a[3];
            lay.addresses({0, static_cast<uint16_t>(u),
                           static_cast<uint16_t>(v)},
                          a);
            block_a.insert(a[0]);
            lay.addresses({0, static_cast<uint16_t>(u + 8),
                           static_cast<uint16_t>(v)},
                          a);
            block_b.insert(a[0]);
        }
    for (Addr a : block_a)
        EXPECT_EQ(block_b.count(a), 0u);
}

TEST(Compressed, TinyLevelsClampTheRatio)
{
    // A 1x1 level (4 bytes raw) cannot compress below 1 byte; the
    // layout must still produce a valid in-footprint address.
    AddressSpace s;
    TextureLayout lay(compressed(8, 16), pyramid(64, 64), s);
    Addr a[3];
    unsigned levels = lay.numLevels();
    lay.addresses({static_cast<uint16_t>(levels - 1), 0, 0}, a);
    EXPECT_LT(a[0], s.used());
}

TEST(Compressed, NameEncodesParameters)
{
    AddressSpace s;
    TextureLayout lay(compressed(4, 8), pyramid(16, 16), s);
    EXPECT_EQ(lay.name(), "compressed-4x4@8:1");
}

TEST(Compressed, CostsOneAccessPerTexel)
{
    AddressSpace s;
    TextureLayout lay(compressed(8, 4), pyramid(32, 32), s);
    EXPECT_EQ(lay.cost().accessesPerTexel, 1u);
}
