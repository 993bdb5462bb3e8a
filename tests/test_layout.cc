/** @file
 * Unit and property tests for the texture memory representations
 * (paper sections 5 and 6.2).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <tuple>

#include "layout/layout.hh"

using namespace texcache;

namespace {

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

TEST(AddressSpace, AlignsAndGrows)
{
    AddressSpace space(4096);
    Addr a = space.allocate(100);
    Addr b = space.allocate(100);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_GE(space.used(), b + 100);
}

TEST(AddressSpace, RejectsNonPowerAlignment)
{
    EXPECT_EXIT(AddressSpace(100), ::testing::ExitedWithCode(1),
                "not a power of two");
}

TEST(Nonblocked, MatchesPaperFormula)
{
    // Texel address = base + ((tv << lw) + tu) * 4.
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Nonblocked}, pyramid(8, 8),
                      space);
    Addr a0[3], a1[3], a2[3];
    lay.addresses({0, 0, 0}, a0);
    lay.addresses({0, 3, 0}, a1);
    lay.addresses({0, 0, 2}, a2);
    EXPECT_EQ(a1[0] - a0[0], 3u * 4);
    EXPECT_EQ(a2[0] - a0[0], 2u * 8 * 4);
}

TEST(Nonblocked, LevelsAreDisjointArrays)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Nonblocked}, pyramid(16, 16),
                      space);
    Addr lo[3], hi[3];
    lay.addresses({0, 15, 15}, lo); // last texel of level 0
    lay.addresses({1, 0, 0}, hi);   // first texel of level 1
    EXPECT_GE(hi[0], lo[0] + 4);
}

TEST(Williams, EmitsThreeComponentAddresses)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Williams}, pyramid(8, 8), space);
    Addr a[3];
    EXPECT_EQ(lay.addresses({0, 0, 0}, a), 3u);
    // Component planes are separated by power-of-two offsets: R at
    // (8,0), G at (0,8), B at (8,8) in a 16-wide byte array.
    EXPECT_EQ(a[1] - a[0], 8u * 16 - 8); // G - R
    EXPECT_EQ(a[2] - a[0], 8u * 16);     // B - R
}

TEST(Williams, RejectsNonSquareTextures)
{
    AddressSpace space;
    EXPECT_EXIT(TextureLayout({.kind = LayoutKind::Williams}, pyramid(8, 32),
                              space),
                ::testing::ExitedWithCode(1), "square");
}

TEST(Williams, CostReflectsThreeAccesses)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Williams}, pyramid(8, 8), space);
    EXPECT_EQ(lay.cost().accessesPerTexel, 3u);
}

TEST(Blocked, TexelsWithinBlockAreContiguous)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Blocked, .blockW = 4, .blockH = 4},
                      pyramid(16, 16), space);
    // All 16 texels of block (0,0) of level 0 occupy one 64-byte run.
    Addr base[3];
    lay.addresses({0, 0, 0}, base);
    std::set<Addr> seen;
    for (unsigned v = 0; v < 4; ++v)
        for (unsigned u = 0; u < 4; ++u) {
            Addr a[3];
            lay.addresses({0, static_cast<uint16_t>(u),
                           static_cast<uint16_t>(v)},
                          a);
            EXPECT_GE(a[0], base[0]);
            EXPECT_LT(a[0], base[0] + 64);
            seen.insert(a[0]);
        }
    EXPECT_EQ(seen.size(), 16u); // all distinct
}

TEST(Blocked, NeighboringBlocksAreBlockBytesApart)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Blocked, .blockW = 4, .blockH = 4},
                      pyramid(32, 32), space);
    Addr a[3], b[3];
    lay.addresses({0, 0, 0}, a);
    lay.addresses({0, 4, 0}, b); // next block in the row
    EXPECT_EQ(b[0] - a[0], 4u * 4 * 4);
}

TEST(Blocked, MatchesPaperTwoStepFormula)
{
    // Verify against a hand-computed example: 16x16 level, 4x4 blocks.
    // Texel (tu=7, tv=5): bx=1, by=1, sx=3, sy=1.
    // rs = width*bh*4 = 16*4*4 = 256; bs = 64.
    // addr = base + 1*256 + 1*64 + (1*4 + 3)*4 = base + 348.
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Blocked, .blockW = 4, .blockH = 4},
                      pyramid(16, 16), space);
    Addr base[3], t[3];
    lay.addresses({0, 0, 0}, base);
    lay.addresses({0, 7, 5}, t);
    EXPECT_EQ(t[0] - base[0], 256u + 64 + 28);
}

TEST(Blocked, CoarseLevelsClampBlockDims)
{
    // A 2x2 level with 8x8 blocks must still address within 2x2*4
    // bytes and stay bijective.
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Blocked, .blockW = 8, .blockH = 8},
                      pyramid(8, 8), space);
    std::set<Addr> seen;
    for (unsigned v = 0; v < 2; ++v)
        for (unsigned u = 0; u < 2; ++u) {
            Addr a[3];
            lay.addresses({2, static_cast<uint16_t>(u),
                           static_cast<uint16_t>(v)},
                          a);
            seen.insert(a[0]);
        }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Padded, ShiftsBlockRowsApart)
{
    // With pad blocks, vertically adjacent blocks differ by the pad in
    // addition to the row stride.
    AddressSpace s1, s2;
    TextureLayout plain({.kind = LayoutKind::Blocked, .blockW = 8, .blockH = 8},
                      pyramid(64, 64), s1);
    TextureLayout padded({.kind = LayoutKind::PaddedBlocked,
                          .blockW = 8,
                          .blockH = 8,
                          .padBlocks = 4},
                         pyramid(64, 64), s2);

    Addr p0[3], p1[3], q0[3], q1[3];
    plain.addresses({0, 0, 0}, p0);
    plain.addresses({0, 0, 8}, p1); // next block row
    padded.addresses({0, 0, 0}, q0);
    padded.addresses({0, 0, 8}, q1);

    uint64_t plain_stride = p1[0] - p0[0];
    uint64_t padded_stride = q1[0] - q0[0];
    // Pad = 4 blocks of 8x8 texels = 1024 bytes.
    EXPECT_EQ(padded_stride, plain_stride + 4u * 8 * 8 * 4);
}

TEST(Padded, FootprintIncludesPad)
{
    AddressSpace s1, s2;
    TextureLayout plain({.kind = LayoutKind::Blocked, .blockW = 8, .blockH = 8},
                      pyramid(64, 64), s1);
    TextureLayout padded({.kind = LayoutKind::PaddedBlocked,
                          .blockW = 8,
                          .blockH = 8,
                          .padBlocks = 4},
                         pyramid(64, 64), s2);
    EXPECT_GT(padded.footprint(), plain.footprint());
}

TEST(Blocked6D, SuperBlockFitsCoarseBudget)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Blocked6D,
                       .blockW = 8,
                       .blockH = 8,
                       .coarseBytes = 32 * 1024},
                      pyramid(256, 256), space);
    // Largest square power-of-two region <= 32 KB at 4 B/texel: 64x64
    // (16 KB); 128x128 would be 64 KB.
    EXPECT_EQ(lay.coarseW(), 64u);
    uint64_t bytes =
        static_cast<uint64_t>(lay.coarseW()) * lay.coarseW() * 4;
    EXPECT_LE(bytes, 32u * 1024);
}

TEST(Blocked6D, SuperBlockIsContiguous)
{
    AddressSpace space;
    TextureLayout lay({.kind = LayoutKind::Blocked6D,
                       .blockW = 8,
                       .blockH = 8,
                       .coarseBytes = 32 * 1024},
                      pyramid(256, 256), space);
    unsigned cw = lay.coarseW();
    uint64_t cb_bytes = static_cast<uint64_t>(cw) * cw * 4;
    Addr first[3];
    lay.addresses({0, 0, 0}, first);
    // Every texel of super-block (0,0) lands inside one cb_bytes run.
    for (unsigned v = 0; v < cw; v += 7)
        for (unsigned u = 0; u < cw; u += 7) {
            Addr a[3];
            lay.addresses({0, static_cast<uint16_t>(u),
                           static_cast<uint16_t>(v)},
                          a);
            ASSERT_GE(a[0], first[0]);
            ASSERT_LT(a[0], first[0] + cb_bytes);
        }
    // And the next super-block starts exactly cb_bytes later.
    Addr next[3];
    lay.addresses({0, static_cast<uint16_t>(cw), 0}, next);
    EXPECT_EQ(next[0] - first[0], cb_bytes);
}

TEST(LayoutFactory, BuildsEveryKind)
{
    for (LayoutKind k :
         {LayoutKind::Williams, LayoutKind::Nonblocked,
          LayoutKind::Blocked, LayoutKind::PaddedBlocked,
          LayoutKind::Blocked6D, LayoutKind::CompressedBlocked}) {
        AddressSpace space;
        LayoutParams p;
        p.kind = k;
        TextureLayout lay(p, pyramid(32, 32), space);
        EXPECT_GT(lay.footprint(), 0u);
        EXPECT_FALSE(lay.name().empty());
    }
}

TEST(LayoutFactory, BlockedForLineFillsOneLine)
{
    // Section 5.3: a block's storage equals one cache line.
    const unsigned shapes[][3] = {{16, 2, 2},  {32, 4, 2},  {64, 4, 4},
                                  {128, 8, 4}, {256, 8, 8}, {512, 16, 8}};
    for (const auto &[line, w, h] : shapes) {
        LayoutParams p = blockedForLine(line, LayoutKind::PaddedBlocked);
        EXPECT_EQ(p.kind, LayoutKind::PaddedBlocked);
        EXPECT_EQ(p.blockW, w) << line;
        EXPECT_EQ(p.blockH, h) << line;
    }
    EXPECT_EXIT(blockedForLine(8), ::testing::ExitedWithCode(1),
                "no block shape for line size 8");
    EXPECT_EXIT(blockedForLine(96), ::testing::ExitedWithCode(1),
                "no block shape");
    EXPECT_EXIT(blockedForLine(1024), ::testing::ExitedWithCode(1),
                "no block shape");
}

TEST(LayoutCosts, BlockedFamilyAddsTheStatedAdders)
{
    // Section 5.3.1: blocked costs two extra adds over nonblocked;
    // section 6.2: padding adds one more, 6-D blocking two more.
    AddressSpace s;
    auto cost = [](LayoutKind kind) {
        AddressSpace s;
        LayoutParams p;
        p.kind = kind;
        return TextureLayout(p, pyramid(8, 8), s).cost();
    };
    AddressingCost base = cost(LayoutKind::Nonblocked);
    AddressingCost blocked = cost(LayoutKind::Blocked);
    AddressingCost padded = cost(LayoutKind::PaddedBlocked);
    AddressingCost six = cost(LayoutKind::Blocked6D);
    EXPECT_EQ(blocked.adds, base.adds + 2);
    EXPECT_EQ(padded.adds, blocked.adds + 1);
    EXPECT_EQ(six.adds, blocked.adds + 2);
}

/**
 * Property test: every layout maps distinct texel coordinates to
 * distinct addresses inside its footprint (bijectivity), across the
 * whole pyramid, including levels smaller than the block dimensions.
 * The layout is built in a 4-byte-aligned space, so its levels abut
 * and a dense layout (nonblocked, blocked, 6-D) must hit every 4-byte
 * slot of every level exactly once.
 */
class LayoutBijectivity
    : public ::testing::TestWithParam<std::tuple<LayoutKind, unsigned,
                                                 unsigned>>
{};

TEST_P(LayoutBijectivity, DistinctTexelsDistinctAddresses)
{
    auto [kind, w, h] = GetParam();
    if (kind == LayoutKind::Williams && w != h)
        GTEST_SKIP() << "Williams requires square textures";
    AddressSpace space(4);
    LayoutParams p;
    p.kind = kind;
    p.blockW = 4;
    p.blockH = 4;
    p.padBlocks = 2;
    p.coarseBytes = 4 * 1024;
    TextureLayout lay(p, pyramid(w, h), space);
    const uint64_t footprint = lay.footprint();
    ASSERT_EQ(footprint, space.used()); // the space's first byte is 0

    // One bit per byte of the footprint: a byte bitmap, not a set, so
    // the 4096x4096 pyramid (22 M texels) checks in a fraction of a
    // second.
    std::vector<uint64_t> seen((footprint + 63) / 64);
    const bool dense = kind == LayoutKind::Nonblocked ||
                       kind == LayoutKind::Blocked ||
                       kind == LayoutKind::Blocked6D;
    uint64_t texels = 0;
    for (unsigned l = 0; l < lay.numLevels(); ++l) {
        LevelDims d = lay.dims(l);
        for (unsigned v = 0; v < d.h; ++v)
            for (unsigned u = 0; u < d.w; ++u) {
                Addr a[3];
                unsigned n = lay.addresses(
                    {static_cast<uint16_t>(l),
                     static_cast<uint16_t>(u),
                     static_cast<uint16_t>(v)},
                    a);
                // Every address is unique across the texture. (For
                // Williams all three component addresses must be.)
                for (unsigned i = 0; i < n; ++i) {
                    ASSERT_LT(a[i], footprint)
                        << lay.name() << " level " << l << " (" << u
                        << "," << v << ")";
                    uint64_t &word = seen[a[i] / 64];
                    uint64_t bit = uint64_t{1} << (a[i] % 64);
                    ASSERT_FALSE(word & bit)
                        << lay.name() << " level " << l << " (" << u
                        << "," << v << ")";
                    word |= bit;
                    if (dense) {
                        ASSERT_EQ(a[i] % 4, 0u) << lay.name();
                    }
                }
                ++texels;
            }
    }
    EXPECT_GT(texels, 0u);
    // Distinct 4-aligned addresses below a footprint of exactly four
    // bytes per texel: every slot of every level is hit once.
    if (dense) {
        EXPECT_EQ(footprint, 4 * texels) << lay.name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayoutsAndShapes, LayoutBijectivity,
    ::testing::Combine(
        ::testing::Values(LayoutKind::Williams, LayoutKind::Nonblocked,
                          LayoutKind::Blocked, LayoutKind::PaddedBlocked,
                          LayoutKind::Blocked6D),
        ::testing::Values(8u, 32u, 64u), ::testing::Values(8u, 32u)));

// The largest power-of-two pyramid the 16-bit record fields comfortably
// hold at paper scale.
INSTANTIATE_TEST_SUITE_P(
    Huge, LayoutBijectivity,
    ::testing::Combine(
        ::testing::Values(LayoutKind::Williams, LayoutKind::Nonblocked,
                          LayoutKind::Blocked, LayoutKind::PaddedBlocked,
                          LayoutKind::Blocked6D),
        ::testing::Values(4096u), ::testing::Values(4096u)));

/** Addresses always fall inside the texture's allocated footprint. */
class LayoutContainment : public ::testing::TestWithParam<LayoutKind>
{};

TEST_P(LayoutContainment, AddressesWithinFootprint)
{
    AddressSpace space;
    LayoutParams p;
    p.kind = GetParam();
    TextureLayout lay(p, pyramid(32, 32), space);
    uint64_t hi = space.used();
    for (unsigned l = 0; l < lay.numLevels(); ++l) {
        LevelDims d = lay.dims(l);
        for (unsigned v = 0; v < d.h; ++v)
            for (unsigned u = 0; u < d.w; ++u) {
                Addr a[3];
                unsigned n = lay.addresses(
                    {static_cast<uint16_t>(l),
                     static_cast<uint16_t>(u),
                     static_cast<uint16_t>(v)},
                    a);
                for (unsigned i = 0; i < n; ++i)
                    ASSERT_LT(a[i], hi);
            }
    }
}

// Containment only for CompressedBlocked: compression maps several
// texels to one byte by design.
INSTANTIATE_TEST_SUITE_P(
    AllLayouts, LayoutContainment,
    ::testing::Values(LayoutKind::Williams, LayoutKind::Nonblocked,
                      LayoutKind::Blocked, LayoutKind::PaddedBlocked,
                      LayoutKind::Blocked6D,
                      LayoutKind::CompressedBlocked));

namespace {

/** Fold @p x into the running digest @p h. */
void
mix(uint64_t &h, uint64_t x)
{
    h = (h ^ x) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
}

/** Digest of every texel's addresses, the footprint, the name and the
 *  address space's high-water mark of one layout. */
uint64_t
layoutDigest(const TextureLayout &lay, const AddressSpace &space)
{
    uint64_t h = 0;
    for (unsigned l = 0; l < lay.numLevels(); ++l) {
        LevelDims d = lay.dims(l);
        for (unsigned v = 0; v < d.h; ++v)
            for (unsigned u = 0; u < d.w; ++u) {
                Addr a[3];
                unsigned n = lay.addresses({static_cast<uint16_t>(l),
                                            static_cast<uint16_t>(u),
                                            static_cast<uint16_t>(v)},
                                           a);
                mix(h, n);
                for (unsigned i = 0; i < n; ++i)
                    mix(h, a[i]);
            }
    }
    mix(h, lay.footprint());
    mix(h, space.used());
    for (char c : lay.name())
        mix(h, static_cast<unsigned char>(c));
    return h;
}

} // namespace

/**
 * Golden digests of every representation's address map over a grid of
 * pyramid shapes, block shapes, pad counts, 6-D budgets and compression
 * ratios, computed on the per-representation layout classes of commit
 * b5275c3. Any change to an address, a footprint, a name or the
 * allocation order moves a digest.
 */
TEST(LayoutGolden, AddressDigestsArePinned)
{
    const LevelDims shapes[] = {{1, 1},  {8, 64},  {64, 8},
                                {128, 1}, {1, 128}, {256, 256}};
    const LevelDims blocks[] = {{1, 1}, {2, 2}, {4, 2},  {2, 4},
                                {4, 4}, {8, 4}, {8, 8},  {16, 8},
                                {16, 16}, {1, 16}, {16, 1}};
    std::vector<LayoutParams> grid;
    LayoutParams p;
    p.kind = LayoutKind::Williams;
    grid.push_back(p);
    p.kind = LayoutKind::Nonblocked;
    grid.push_back(p);
    for (LevelDims b : blocks) {
        p.blockW = b.w;
        p.blockH = b.h;
        p.kind = LayoutKind::Blocked;
        grid.push_back(p);
        p.kind = LayoutKind::PaddedBlocked;
        for (unsigned pad : {1u, 4u}) {
            p.padBlocks = pad;
            grid.push_back(p);
        }
        p.kind = LayoutKind::Blocked6D;
        for (uint64_t budget : {64u, 1024u, 32u * 1024}) {
            if (budget < uint64_t{b.w} * b.h * kBytesPerTexel)
                continue; // fatal: smaller than one block
            p.coarseBytes = budget;
            grid.push_back(p);
        }
        p.kind = LayoutKind::CompressedBlocked;
        for (unsigned ratio : {2u, 8u, 64u}) {
            p.compressionRatio = ratio;
            grid.push_back(p);
        }
    }

    uint64_t digest[6] = {};
    unsigned cases = 0;
    for (const LayoutParams &params : grid)
        for (LevelDims s : shapes) {
            if (params.kind == LayoutKind::Williams && s.w != s.h)
                continue; // fatal: Williams needs square textures
            // A leading allocation puts the layout's first base at the
            // space's 256-byte alignment, not at 0.
            AddressSpace space(256);
            space.allocate(1);
            TextureLayout lay(params, pyramid(s.w, s.h), space);
            mix(digest[static_cast<unsigned>(params.kind)],
                layoutDigest(lay, space));
            ++cases;
        }

    EXPECT_EQ(cases, 578u);
    const uint64_t expected[6] = {
        0x5467176f4edd015dull, // williams
        0x46a44d9f0e7da818ull, // nonblocked
        0x7f2823a9f529766dull, // blocked
        0xaacc8dd5bc26024dull, // padded
        0x35672452a90ae934ull, // blocked6d
        0xb289e54fab23655eull, // compressed
    };
    for (unsigned k = 0; k < 6; ++k) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(digest[k]));
        EXPECT_EQ(digest[k], expected[k])
            << layoutKindName(static_cast<LayoutKind>(k)) << " digest "
            << hex;
    }
}
