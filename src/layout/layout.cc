#include "layout/layout.hh"

#include <algorithm>

namespace texcache {

std::vector<LevelDims>
levelDims(const MipMap &mip)
{
    std::vector<LevelDims> d;
    d.reserve(mip.numLevels());
    for (unsigned l = 0; l < mip.numLevels(); ++l)
        d.push_back({mip.width(l), mip.height(l)});
    return d;
}

const char *
layoutKindName(LayoutKind kind)
{
    switch (kind) {
      case LayoutKind::Williams:
        return "williams";
      case LayoutKind::Nonblocked:
        return "nonblocked";
      case LayoutKind::Blocked:
        return "blocked";
      case LayoutKind::PaddedBlocked:
        return "padded";
      case LayoutKind::Blocked6D:
        return "blocked6d";
      case LayoutKind::CompressedBlocked:
        return "compressed";
    }
    panic("unknown layout kind");
}

LayoutParams
blockedForLine(unsigned line_bytes, LayoutKind kind)
{
    fatal_if(!isPowerOfTwo(line_bytes) || line_bytes < 16 ||
                 line_bytes > 512,
             "no block shape for line size ", line_bytes);
    // 4 B texels: a line holds line/4 texels, split as square as can be
    // with the width taking the odd power (32 B -> 4x2, 128 B -> 8x4).
    unsigned texels_log = log2Exact(line_bytes) - 2;
    LayoutParams p;
    p.kind = kind;
    p.blockW = 1u << ((texels_log + 1) / 2);
    p.blockH = 1u << (texels_log / 2);
    return p;
}

namespace {

/**
 * The field for bits [lo, hi) of coordinate @p axis (0 = u, 1 = v),
 * scaled by 2^scale_log and then shifted right by drop_log; bits that
 * drop out leave the field, and an empty field is all zero.
 */
LevelMap::Field
bitField(unsigned axis, unsigned lo, unsigned hi, unsigned scale_log,
         unsigned drop_log = 0)
{
    unsigned drop = drop_log > scale_log ? drop_log - scale_log : 0;
    lo += drop;
    if (lo >= hi)
        return {0, 0, 0};
    return {axis * 16 + lo, (1u << (hi - lo)) - 1,
            uint64_t{1} << (scale_log + drop - drop_log)};
}

} // namespace

TextureLayout::TextureLayout(const LayoutParams &params,
                             std::vector<LevelDims> dims,
                             AddressSpace &space)
    : params_(params), dims_(std::move(dims))
{
    fatal_if(dims_.empty(), "layout with no levels");
    for (const LevelDims &d : dims_) {
        fatal_if(!isPowerOfTwo(d.w) || !isPowerOfTwo(d.h),
                 "texture level ", d.w, "x", d.h, " is not power-of-two");
        fatal_if(d.w > 65536 || d.h > 65536, "texture level ", d.w, "x",
                 d.h, " exceeds the 16-bit texel coordinates");
    }
    const LayoutKind kind = params.kind;
    const unsigned bw = params.blockW, bh = params.blockH;
    if (kind != LayoutKind::Williams && kind != LayoutKind::Nonblocked)
        fatal_if(!isPowerOfTwo(bw) || !isPowerOfTwo(bh), "block dims ",
                 bw, "x", bh, " not powers of two");
    unsigned pad_log = 0;
    if (kind == LayoutKind::PaddedBlocked) {
        fatal_if(params.padBlocks == 0,
                 "padded layout requires pad blocks");
        fatal_if(!isPowerOfTwo(params.padBlocks), "pad block count ",
                 params.padBlocks, " not a power of two");
        pad_log = log2Exact(params.padBlocks);
    }
    unsigned ratio_log = 0;
    if (kind == LayoutKind::CompressedBlocked) {
        fatal_if(!isPowerOfTwo(params.compressionRatio) ||
                     params.compressionRatio < 2,
                 "compression ratio ", params.compressionRatio,
                 " must be a power of two >= 2");
        ratio_log = log2Exact(params.compressionRatio);
    }
    if (kind == LayoutKind::Blocked6D) {
        fatal_if(params.coarseBytes <
                     static_cast<uint64_t>(bw) * bh * kBytesPerTexel,
                 "6D coarse budget ", params.coarseBytes,
                 "B smaller than one block");
        // Largest square power-of-two region whose storage fits the
        // budget, and never smaller than one block.
        coarseW_ = 1;
        while (static_cast<uint64_t>(coarseW_ * 2) * (coarseW_ * 2) *
                   kBytesPerTexel <=
               params.coarseBytes)
            coarseW_ *= 2;
        coarseW_ = std::max(coarseW_, std::max(bw, bh));
    }

    // Williams' planes share one 2W x 2H byte array: level l's R plane
    // sits at (w_l, 0), G at (0, h_l) and B at (w_l, h_l), so each
    // coarser level nests into its predecessor's upper-left quadrant.
    // The nesting is only well defined for square images: once one
    // dimension of a non-square pyramid clamps at 1, a coarser level's
    // plane would overlap its predecessor's.
    Addr williams = 0;
    unsigned stride_log = 0; // log2 of the arrangement width (2W bytes)
    if (kind == LayoutKind::Williams) {
        fatal_if(dims_[0].w != dims_[0].h,
                 "Williams layout requires square textures, got ",
                 dims_[0].w, "x", dims_[0].h);
        stride_log = log2Exact(dims_[0].w) + 1;
        footprint_ = uint64_t{4} * dims_[0].w * dims_[0].h;
        williams = space.allocate(footprint_);
    }

    Addr first = 0;
    for (size_t l = 0; l < dims_.size(); ++l) {
        const unsigned w = dims_[l].w, h = dims_[l].h;
        const unsigned lw = log2Exact(w), lh = log2Exact(h);
        uint64_t bytes = uint64_t{w} * h * kBytesPerTexel;
        LevelMap m{};
        m.outside = ~((w - 1) | (h - 1) << 16);
        switch (kind) {
          case LayoutKind::Williams:
            // Per plane: base + ((oy + v) << stride_log) + ox + u.
            m.base[0] = williams + w;
            m.base[1] = williams + (uint64_t{h} << stride_log);
            m.base[2] = m.base[1] + w;
            m.field[0] = bitField(0, 0, lw, 0);
            m.field[1] = bitField(1, 0, lh, stride_log);
            break;
          case LayoutKind::Nonblocked:
            // base + ((v << lw) + u) * 4.
            m.field[0] = bitField(0, 0, lw, 2);
            m.field[1] = bitField(1, 0, lh, lw + 2);
            break;
          case LayoutKind::Blocked:
          case LayoutKind::PaddedBlocked:
          case LayoutKind::CompressedBlocked: {
            // base + (by << rs) [+ (by << ps)] + (bx << bs)
            //      + ((sy << (lbw + 2)) + (sx << 2)) [>> ratio]
            // with block (bx, by) and texel-in-block (sx, sy); the
            // compressed block and row strides shrink by the ratio,
            // clamped so a block keeps at least one byte.
            const unsigned lbw = log2Exact(std::min(bw, w));
            const unsigned lbh = log2Exact(std::min(bh, h));
            const unsigned drop = std::min(ratio_log, lbw + lbh + 2);
            const unsigned bs = lbw + lbh + 2 - drop;
            const unsigned rs = lw + lbh + 2 - drop;
            uint64_t row = uint64_t{1} << rs;
            if (kind == LayoutKind::PaddedBlocked) {
                const unsigned ps = lbw + lbh + 2 + pad_log;
                row += uint64_t{1} << ps;
                bytes += uint64_t{h >> lbh} << ps; // pad per block row
            }
            bytes = std::max<uint64_t>(bytes >> drop, 1);
            m.field[0] = bitField(0, lbw, lw, bs);
            m.field[1] = bitField(1, lbh, lh, 0);
            m.field[1].scale *= row;
            m.field[2] = bitField(0, 0, lbw, 2, drop);
            m.field[3] = bitField(1, 0, lbh, lbw + 2, drop);
            break;
          }
          case LayoutKind::Blocked6D: {
            // Super-block (cx, cy), block-in-super-block (bx, by) and
            // texel-in-block (sx, sy), each row-major.
            const unsigned lcw = log2Exact(std::min(coarseW_, w));
            const unsigned lch = log2Exact(std::min(coarseW_, h));
            const unsigned lbw = std::min(log2Exact(bw), lcw);
            const unsigned lbh = std::min(log2Exact(bh), lch);
            m.field[0] = bitField(0, lcw, lw, lcw + lch + 2);
            m.field[1] = bitField(1, lch, lh, lw + lch + 2);
            m.field[2] = bitField(0, lbw, lcw, lbw + lbh + 2);
            m.field[3] = bitField(1, lbh, lch, lcw + lbh + 2);
            m.field[4] = bitField(0, 0, lbw, 2);
            m.field[5] = bitField(1, 0, lbh, lbw + 2);
            break;
          }
        }
        if (kind != LayoutKind::Williams) {
            m.base[0] = space.allocate(bytes);
            if (l == 0)
                first = m.base[0];
        }
        levels_.push_back(m);
    }
    if (kind != LayoutKind::Williams)
        footprint_ = space.used() - first;
}

std::string
TextureLayout::name() const
{
    const std::string block = std::to_string(params_.blockW) + "x" +
                              std::to_string(params_.blockH);
    switch (params_.kind) {
      case LayoutKind::Williams:
      case LayoutKind::Nonblocked:
        return layoutKindName(params_.kind);
      case LayoutKind::Blocked:
        return "blocked-" + block;
      case LayoutKind::PaddedBlocked:
        return "padded-" + block + "+" +
               std::to_string(params_.padBlocks);
      case LayoutKind::Blocked6D:
        return "blocked6d-" + block + "/" + std::to_string(coarseW_);
      case LayoutKind::CompressedBlocked:
        return "compressed-" + block + "@" +
               std::to_string(params_.compressionRatio) + ":1";
    }
    panic("unknown layout kind");
}

AddressingCost
TextureLayout::cost() const
{
    switch (params_.kind) {
      case LayoutKind::Williams:
        // Per component: base + ((oy + tv) << stride_log) + ox + tu.
        // Three component reads per texel.
        return {/*adds=*/3, /*shifts=*/1, /*constShifts=*/0, /*ands=*/0,
                /*accessesPerTexel=*/3};
      case LayoutKind::Nonblocked:
        // base + (tv << lw) + tu, then << 2 for the 4-byte texel.
        return {2, 1, 1, 0, 1};
      case LayoutKind::Blocked:
        // Two extra adds over the nonblocked base (section 5.3.1): the
        // block address (by << rs) + (bx << bs) and the sub-block offset
        // (sy << lbw) + sx, of which two shifts are constant-amount.
        return {4, 1, 4, 2, 1};
      case LayoutKind::PaddedBlocked:
        // One extra add over blocked (section 6.2): + (by << ps).
        return {5, 1, 5, 2, 1};
      case LayoutKind::Blocked6D:
        // Two extra adds over blocked (section 6.2).
        return {6, 1, 6, 4, 1};
      case LayoutKind::CompressedBlocked:
        // Blocked addressing plus one constant shift to scale the
        // intra-block offset down by the compression ratio.
        return {4, 1, 5, 2, 1};
    }
    panic("unknown layout kind");
}

} // namespace texcache
