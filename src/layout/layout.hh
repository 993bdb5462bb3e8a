/**
 * @file
 * Texture memory representations (the paper's sections 5 and 6.2).
 *
 * A TextureLayout maps a texel coordinate (level, u, v) of one mip-mapped
 * texture to the byte address(es) the hardware would read. Six
 * representations (LayoutKind) are implemented:
 *
 *  - Williams           Fig 5.1(a): component planes in one quadtree
 *                       arrangement; three 1-byte accesses per texel.
 *  - Nonblocked         Fig 5.1(b): the base representation; one
 *                       row-major 2-D RGBA array per level.
 *  - Blocked            section 5.3: 4-D arrays of bw x bh texel blocks.
 *  - PaddedBlocked      section 6.2 / Fig 6.3(a): blocked plus pad
 *                       blocks at the end of each block row.
 *  - Blocked6D          section 6.2 / Fig 6.3(b): two-level blocking
 *                       (texels in blocks, blocks in cache-sized
 *                       super-blocks).
 *  - CompressedBlocked  section 8's future work: blocked over fixed-rate
 *                       compressed blocks, so `ratio` texels share each
 *                       stored byte.
 *
 * Every one of them computes an address as a base plus power-of-two bit
 * fields of u and v - exactly the shifts, masks and adds Table 2.1 and
 * section 5.3.1 count - so one table per level (LevelMap) holds all of
 * them. Pyramid levels smaller than a block (or super-block) clamp the
 * block to the level, keeping the power-of-two structure with no wasted
 * memory.
 */

#ifndef TEXCACHE_LAYOUT_LAYOUT_HH
#define TEXCACHE_LAYOUT_LAYOUT_HH

#include <string>
#include <vector>

#include "layout/address_space.hh"
#include "texture/mipmap.hh"
#include "texture/sampler.hh"

namespace texcache {

/** Dimensions of each level of a pyramid (layouts never need pixels). */
struct LevelDims
{
    unsigned w;
    unsigned h;
};

/** Extract per-level dimensions from a mip map. */
std::vector<LevelDims> levelDims(const MipMap &mip);

/** Per-texel addressing cost of a representation (paper Table 2.1 and
 *  sections 5.2.1 / 5.3.1 / 6.2). Shift-by-constant operations are
 *  counted separately from general shifts as the paper does. */
struct AddressingCost
{
    unsigned adds = 0;
    unsigned shifts = 0;       ///< variable-amount shifts
    unsigned constShifts = 0;  ///< fixed-amount shifts (wiring in HW)
    unsigned ands = 0;         ///< bit-field masks
    unsigned accessesPerTexel = 1;
};

/** Which representation to build. */
enum class LayoutKind
{
    Williams,
    Nonblocked,
    Blocked,
    PaddedBlocked,
    Blocked6D,
    CompressedBlocked, ///< extension: fixed-rate compressed blocks
};

/** Parameters shared by the blocked family. */
struct LayoutParams
{
    LayoutKind kind = LayoutKind::Nonblocked;
    unsigned blockW = 4;      ///< block width in texels (power of two)
    unsigned blockH = 4;      ///< block height in texels (power of two)
    unsigned padBlocks = 4;   ///< pad blocks per block row (power of two)
    uint64_t coarseBytes = 32 * 1024; ///< 6-D super-block budget (bytes)
    unsigned compressionRatio = 8;    ///< compressed layout rate (N:1)
    /** Allocation alignment for each texture array (power of two).
     *  The default mimics page-aligned mallocs; because texture bases
     *  then share low address bits, it is the worst case for
     *  inter-texture cache conflicts. */
    uint64_t baseAlign = 4096;
};

/** Short display name for a layout kind. */
const char *layoutKindName(LayoutKind kind);

/**
 * The square-ish block whose storage equals one cache line of
 * @p line_bytes (16..512 B), section 5.3's rule for sizing blocks.
 */
LayoutParams blockedForLine(unsigned line_bytes,
                            LayoutKind kind = LayoutKind::Blocked);

/** Bit fields a representation's LevelMap uses (the rest are zero). */
constexpr unsigned
layoutFields(LayoutKind kind)
{
    switch (kind) {
      case LayoutKind::Williams:
      case LayoutKind::Nonblocked:
        return 2; // u, v
      case LayoutKind::Blocked6D:
        return 6; // super-block, block and texel bits of u and of v
      default:
        return 4; // block and texel bits of u and of v
    }
}

/** Addresses a representation reads per texel. */
constexpr unsigned
layoutAddresses(LayoutKind kind)
{
    return kind == LayoutKind::Williams ? 3 : 1;
}

/**
 * One pyramid level's address map. A texel is read as the packed word
 * uv = u | v << 16 (a trace record's low 32 bits), each field takes
 * ((uv >> shift) & mask) * scale, and
 *
 *     address[k] = base[k] + sum of the fields.
 *
 * A scale is a power of two except padded's block-row field, which
 * folds the row stride and the pad into one: by * (2^rs + 2^ps).
 */
struct LevelMap
{
    struct Field
    {
        uint32_t shift;
        uint32_t mask;
        uint64_t scale;
    };

    Addr base[3];     ///< one per address (Williams: R, G, B planes)
    uint32_t outside; ///< uv bits no texel of the level sets
    Field field[6];   ///< the first layoutFields(kind) are used

    /** Sum of the first @p n fields for texel @p uv. */
    Addr
    offset(uint32_t uv, unsigned n) const
    {
        Addr off = 0;
        // At -O2 GCC keeps a 4- or 6-iteration loop rolled, which made
        // the blocked kinds map about 25% slower.
#pragma GCC unroll 6
        for (unsigned i = 0; i < n; ++i)
            off += static_cast<Addr>((uv >> field[i].shift) &
                                     field[i].mask) *
                   field[i].scale;
        return off;
    }
};

/**
 * Maps texel coordinates of one texture to simulated memory addresses.
 *
 * The constructor places the pyramid in an AddressSpace and fills one
 * LevelMap per level. All power-of-two assumptions of the paper
 * (texture, block and pad dimensions) are checked at construction.
 */
class TextureLayout
{
  public:
    TextureLayout(const LayoutParams &params, std::vector<LevelDims> dims,
                  AddressSpace &space);

    /**
     * Compute the memory addresses read for one texel touch.
     *
     * @param t     texel coordinate (level, u, v); must be in range
     *              (unchecked here; SceneLayout::mapPacked checks).
     * @param out   receives 1..3 byte addresses.
     * @return number of addresses written (3 for Williams, else 1).
     */
    unsigned
    addresses(const TexelTouch &t, Addr out[3]) const
    {
        const LevelMap &m = levels_[t.level];
        Addr off = m.offset(t.u | static_cast<uint32_t>(t.v) << 16,
                            layoutFields(params_.kind));
        unsigned n = layoutAddresses(params_.kind);
        for (unsigned k = 0; k < n; ++k)
            out[k] = m.base[k] + off;
        return n;
    }

    /** Human-readable name for reports. */
    std::string name() const;

    /** Static per-texel addressing cost of this representation. */
    AddressingCost cost() const;

    /** Total bytes this texture occupies under this representation. */
    uint64_t footprint() const { return footprint_; }

    /** Number of pyramid levels. */
    unsigned numLevels() const
    {
        return static_cast<unsigned>(dims_.size());
    }

    /** Dimensions of level @p l. */
    LevelDims
    dims(unsigned l) const
    {
        panic_if(l >= dims_.size(), "level ", l, " out of range");
        return dims_[l];
    }

    /** The per-level address maps, numLevels() of them. */
    const LevelMap *levelMaps() const { return levels_.data(); }

    /** Blocked6D's nominal super-block edge in texels (else 0). */
    unsigned coarseW() const { return coarseW_; }

  private:
    LayoutParams params_;
    std::vector<LevelDims> dims_;
    std::vector<LevelMap> levels_;
    uint64_t footprint_ = 0;
    unsigned coarseW_ = 0;
};

} // namespace texcache

#endif // TEXCACHE_LAYOUT_LAYOUT_HH
