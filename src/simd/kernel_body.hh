/**
 * @file
 * The single kernel body behind every ISA level (DESIGN.md section 13).
 *
 * Included by exactly one per-ISA translation unit per traits type
 * (kernels_scalar.cc / kernels_sse41.cc / kernels_avx2.cc), each
 * compiled with its own -m flags. The traits type parameter keeps the
 * template instantiations distinct link symbols, so the linker can
 * never substitute a wider build's code into a narrower dispatch
 * target.
 *
 * Byte-identity rules this file lives by:
 *
 *  - Vectorize across fragments only; per fragment, perform the exact
 *    float operations of attributesAt / computeLod / sampleMipMapMode's
 *    level selection and texel addressing in the reference's
 *    association order.
 *    add/sub/mul/div/sqrt/floor and int converts are IEEE-exact per
 *    lane, so lane i equals the scalar run on fragment i bit for bit.
 *  - No FMA: the per-ISA sources are compiled with -ffp-contract=off
 *    and without -mfma, because the scalar reference (baseline x86-64)
 *    cannot contract either.
 *  - std::max(a, b) semantics (equal or NaN selects a) map to the
 *    intrinsic max with *swapped* operands; the traits' maxStd
 *    encapsulates that.
 *  - log2 stays scalar per lane: libm's polynomial cannot be
 *    reproduced exactly in vector form, so each lane calls the very
 *    same std::log2 the reference calls.
 *  - Mip level selection stays scalar per lane (it is branchy and
 *    feeds per-lane level dimensions); the dimension arrays are then
 *    re-loaded as vectors for the address math, avoiding gathers.
 *  - Batch tails (n % lanes != 0) are padded by repeating the last
 *    real pixel, so no lane ever computes on garbage (ASan-clean) and
 *    padded results are simply never read.
 */

#ifndef TEXCACHE_SIMD_KERNEL_BODY_HH
#define TEXCACHE_SIMD_KERNEL_BODY_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "simd/span_kernels.hh"
#include "texture/mipmap.hh"
#include "trace/texel_trace.hh"

namespace texcache {
namespace simd {

template <class V>
void
touchesKernel(const SpanContext &ctx, const int32_t *xs,
              const int32_t *ys, int n, SpanBatchOut &out)
{
    constexpr int W = V::kW;
    static_assert(kSpanBatch % W == 0, "batch must hold whole vectors");

    // Pad the tail with the last real pixel: full vector groups, every
    // lane a valid covered pixel.
    int np = (n + W - 1) / W * W;
    alignas(32) int32_t px[kSpanBatch], py[kSpanBatch];
    for (int i = 0; i < n; ++i) {
        px[i] = xs[i];
        py[i] = ys[i];
    }
    for (int i = n; i < np; ++i) {
        px[i] = xs[n - 1];
        py[i] = ys[n - 1];
    }

    // ---- Stage 1+2 (vector): attributesAt + the LOD footprint ------
    alignas(32) float U[kSpanBatch], Vc[kSpanBatch], Rho[kSpanBatch];
    const auto half = V::set1(0.5f);
    for (int g = 0; g < np; g += W) {
        auto pxc = V::add(V::toF(V::iload(px + g)), half);
        auto pyc = V::add(V::toF(V::iload(py + g)), half);
        // Plane::at: e0 + ex * x + ey * y, left to right.
        auto iw = V::add(V::add(V::set1(ctx.iwE0),
                                V::mul(V::set1(ctx.iwEx), pxc)),
                         V::mul(V::set1(ctx.iwEy), pyc));
        auto w = V::div(V::set1(1.0f), iw);
        auto uw = V::add(V::add(V::set1(ctx.uwE0),
                                V::mul(V::set1(ctx.uwEx), pxc)),
                         V::mul(V::set1(ctx.uwEy), pyc));
        auto vw = V::add(V::add(V::set1(ctx.vwE0),
                                V::mul(V::set1(ctx.vwEx), pxc)),
                         V::mul(V::set1(ctx.vwEy), pyc));
        auto u = V::mul(uw, w);
        auto v = V::mul(vw, w);
        // Quotient rule, exactly as attributesAt.
        auto dudx = V::mul(V::sub(V::set1(ctx.uwEx),
                                  V::mul(u, V::set1(ctx.iwEx))), w);
        auto dudy = V::mul(V::sub(V::set1(ctx.uwEy),
                                  V::mul(u, V::set1(ctx.iwEy))), w);
        auto dvdx = V::mul(V::sub(V::set1(ctx.vwEx),
                                  V::mul(v, V::set1(ctx.iwEx))), w);
        auto dvdy = V::mul(V::sub(V::set1(ctx.vwEy),
                                  V::mul(v, V::set1(ctx.iwEy))), w);
        // computeLod on derivatives scaled by the level-0 dimensions.
        auto a = V::mul(dudx, V::set1(ctx.texW));
        auto b = V::mul(dvdx, V::set1(ctx.texH));
        auto c = V::mul(dudy, V::set1(ctx.texW));
        auto d = V::mul(dvdy, V::set1(ctx.texH));
        auto rx = V::sqrt(V::add(V::mul(a, a), V::mul(b, b)));
        auto ry = V::sqrt(V::add(V::mul(c, c), V::mul(d, d)));
        auto rho = V::maxStd(rx, ry);
        V::store(U + g, u);
        V::store(Vc + g, v);
        V::store(Rho + g, rho);
    }

    // lambda per lane: libm log2 is not reproducible in vector form.
    float lam[kSpanBatch];
    for (int i = 0; i < np; ++i)
        lam[i] = Rho[i] <= 1e-20f ? -20.0f : std::log2(Rho[i]);

    // ---- Stage 3 (scalar per lane): mip level selection -------------
    const MipMap &mip = *ctx.mip;
    unsigned max_level = mip.numLevels() - 1;
    FilterKind kind[kSpanBatch];
    uint8_t ntouch[kSpanBatch];
    unsigned L0[kSpanBatch], L1[kSpanBatch];
    bool anyUpper = false;
    if (ctx.mode == FilterMode::Trilinear) {
        // Mirror sampleMipMap's level selection exactly.
        for (int i = 0; i < np; ++i) {
            float lambda = lam[i];
            if (lambda <= 0.0f) {
                kind[i] = FilterKind::Bilinear;
                ntouch[i] = 4;
                L0[i] = 0;
                L1[i] = 0;
            } else {
                float clamped =
                    std::min(lambda, static_cast<float>(max_level));
                unsigned lower = static_cast<unsigned>(clamped);
                if (lower > max_level - (max_level ? 1 : 0) &&
                    max_level > 0)
                    lower = max_level - 1;
                if (max_level == 0)
                    lower = 0;
                unsigned upper = std::min(lower + 1, max_level);
                kind[i] = FilterKind::Trilinear;
                ntouch[i] = 8;
                L0[i] = lower;
                L1[i] = upper;
                anyUpper = true;
            }
        }
    } else {
        // Nearest-mip level selection (round-to-nearest past 0.5).
        for (int i = 0; i < np; ++i) {
            float lambda = lam[i];
            unsigned level = 0;
            if (lambda > 0.5f) {
                level = static_cast<unsigned>(lambda + 0.5f);
                if (level > max_level)
                    level = max_level;
            }
            L0[i] = level;
            L1[i] = level;
            if (ctx.mode == FilterMode::BilinearMipNearest) {
                kind[i] = FilterKind::Bilinear;
                ntouch[i] = 4;
            } else {
                kind[i] = FilterKind::Nearest;
                ntouch[i] = 1;
            }
        }
    }

    // Per-lane level dimensions, SoA so stage 4 loads vectors instead
    // of gathering.
    alignas(32) float fw0[kSpanBatch] = {}, fh0[kSpanBatch] = {};
    alignas(32) float fw1[kSpanBatch] = {}, fh1[kSpanBatch] = {};
    alignas(32) int32_t wm0[kSpanBatch] = {}, hm0[kSpanBatch] = {};
    alignas(32) int32_t wm1[kSpanBatch] = {}, hm1[kSpanBatch] = {};
    for (int i = 0; i < np; ++i) {
        const Image &l0 = mip.level(L0[i]);
        fw0[i] = static_cast<float>(l0.width());
        fh0[i] = static_cast<float>(l0.height());
        wm0[i] = static_cast<int32_t>(l0.width()) - 1;
        hm0[i] = static_cast<int32_t>(l0.height()) - 1;
        if (anyUpper) {
            const Image &l1 = mip.level(L1[i]);
            fw1[i] = static_cast<float>(l1.width());
            fh1[i] = static_cast<float>(l1.height());
            wm1[i] = static_cast<int32_t>(l1.width()) - 1;
            hm1[i] = static_cast<int32_t>(l1.height()) - 1;
        }
    }

    // ---- Stage 4 (vector): texel address generation -----------------
    const bool repeat = ctx.wrap == WrapMode::Repeat;
    auto wrapVec = [&](auto idx, auto sizeMinus1) {
        // wrapRepeat: (unsigned)coord & (size - 1); the bit pattern of
        // a signed AND is identical. wrapClamp: clamp to [0, size-1],
        // which min/max over ints reproduces exactly.
        if (repeat)
            return V::iand(idx, sizeMinus1);
        return V::imax(V::imin(idx, sizeMinus1), V::iset1(0));
    };

    // Touch coordinates, pre-combined into the packed record's low
    // half (u | v << 16) while still in vector registers, so record
    // emission below is one 64-bit OR per record. Slot c = the
    // filter's first level, slot d = the trilinear upper level;
    // cXY = u_X | v_Y << 16 in sampleBilinearLevel's touch order.
    alignas(32) int32_t c00[kSpanBatch] = {}, c10[kSpanBatch] = {};
    alignas(32) int32_t c01[kSpanBatch] = {}, c11[kSpanBatch] = {};
    alignas(32) int32_t d00[kSpanBatch] = {}, d10[kSpanBatch] = {};
    alignas(32) int32_t d01[kSpanBatch] = {}, d11[kSpanBatch] = {};
    if (ctx.mode == FilterMode::NearestMipNearest) {
        // One texel: floor(u * w), no half-texel offset.
        for (int g = 0; g < np; g += W) {
            auto u = V::load(U + g);
            auto v = V::load(Vc + g);
            auto iu = V::trunc(V::floor(V::mul(u, V::load(fw0 + g))));
            auto iv = V::trunc(V::floor(V::mul(v, V::load(fh0 + g))));
            V::istore(c00 + g,
                      V::ior(wrapVec(iu, V::iload(wm0 + g)),
                             V::ishl16(wrapVec(iv, V::iload(hm0 + g)))));
        }
    } else {
        // sampleBilinearLevel's touches for one level slot.
        auto bilinearSlot = [&](const float *fw, const float *fh,
                                const int32_t *wm, const int32_t *hm,
                                int32_t *s00, int32_t *s10, int32_t *s01,
                                int32_t *s11) {
            for (int g = 0; g < np; g += W) {
                auto u = V::load(U + g);
                auto v = V::load(Vc + g);
                auto su = V::sub(V::mul(u, V::load(fw + g)), half);
                auto sv = V::sub(V::mul(v, V::load(fh + g)), half);
                auto i0 = V::trunc(V::floor(su));
                auto j0 = V::trunc(V::floor(sv));
                auto i1 = V::iadd(i0, V::iset1(1));
                auto j1 = V::iadd(j0, V::iset1(1));
                auto wmv = V::iload(wm + g);
                auto hmv = V::iload(hm + g);
                auto w0 = wrapVec(i0, wmv);
                auto w1 = wrapVec(i1, wmv);
                auto z0 = V::ishl16(wrapVec(j0, hmv));
                auto z1 = V::ishl16(wrapVec(j1, hmv));
                V::istore(s00 + g, V::ior(w0, z0));
                V::istore(s10 + g, V::ior(w1, z0));
                V::istore(s01 + g, V::ior(w0, z1));
                V::istore(s11 + g, V::ior(w1, z1));
            }
        };
        bilinearSlot(fw0, fh0, wm0, hm0, c00, c10, c01, c11);
        if (anyUpper)
            bilinearSlot(fw1, fh1, wm1, hm1, d00, d10, d01, d11);
    }

    // ---- Stage 5 (scalar): record emission in touch order -----------
    // TexelRecord::pack = u | v<<16 | level<<32 | texture<<37 |
    // kind<<48; u | v<<16 is the cXY word, the rest is one per-level
    // base. Field-width checks hoisted out of the record loop (the
    // texture is constant across the batch).
    panic_if(ctx.texture >= 2048, "texture id ", ctx.texture,
             " exceeds 11-bit field");
    const uint64_t texBits = static_cast<uint64_t>(ctx.texture) << 37;
    uint32_t cnt = 0;
    for (int i = 0; i < n; ++i) {
        const uint16_t lvl0 = static_cast<uint16_t>(L0[i]);
        panic_if(lvl0 >= 32, "level ", lvl0, " exceeds 5-bit field");
        switch (kind[i]) {
          case FilterKind::Nearest: {
            const uint64_t base =
                texBits | (static_cast<uint64_t>(lvl0) << 32) |
                (static_cast<uint64_t>(TouchKind::Nearest) << 48);
            out.records[cnt++] =
                base | static_cast<uint32_t>(c00[i]);
            break;
          }
          case FilterKind::Bilinear: {
            const uint64_t base =
                texBits | (static_cast<uint64_t>(lvl0) << 32) |
                (static_cast<uint64_t>(TouchKind::Bilinear) << 48);
            out.records[cnt++] = base | static_cast<uint32_t>(c00[i]);
            out.records[cnt++] = base | static_cast<uint32_t>(c10[i]);
            out.records[cnt++] = base | static_cast<uint32_t>(c01[i]);
            out.records[cnt++] = base | static_cast<uint32_t>(c11[i]);
            break;
          }
          case FilterKind::Trilinear: {
            const uint16_t lvl1 = static_cast<uint16_t>(L1[i]);
            panic_if(lvl1 >= 32, "level ", lvl1,
                     " exceeds 5-bit field");
            const uint64_t lo =
                texBits | (static_cast<uint64_t>(lvl0) << 32) |
                (static_cast<uint64_t>(TouchKind::TrilinearLower)
                 << 48);
            const uint64_t up =
                texBits | (static_cast<uint64_t>(lvl1) << 32) |
                (static_cast<uint64_t>(TouchKind::TrilinearUpper)
                 << 48);
            out.records[cnt++] = lo | static_cast<uint32_t>(c00[i]);
            out.records[cnt++] = lo | static_cast<uint32_t>(c10[i]);
            out.records[cnt++] = lo | static_cast<uint32_t>(c01[i]);
            out.records[cnt++] = lo | static_cast<uint32_t>(c11[i]);
            out.records[cnt++] = up | static_cast<uint32_t>(d00[i]);
            out.records[cnt++] = up | static_cast<uint32_t>(d10[i]);
            out.records[cnt++] = up | static_cast<uint32_t>(d01[i]);
            out.records[cnt++] = up | static_cast<uint32_t>(d11[i]);
            break;
          }
        }
        out.kind[i] = kind[i];
        out.numTouches[i] = ntouch[i];
        out.firstLevel[i] = lvl0;
        out.firstU[i] = static_cast<uint16_t>(c00[i]);
        out.firstV[i] =
            static_cast<uint16_t>(static_cast<uint32_t>(c00[i]) >> 16);
        out.recEnd[i] = cnt;
    }
}

template <class V>
uint32_t
coverKernel(const SpanContext &ctx, const int32_t *xs, const int32_t *ys,
            int n)
{
    constexpr int W = V::kW;
    int np = (n + W - 1) / W * W;
    alignas(32) int32_t px[kSpanBatch], py[kSpanBatch];
    for (int i = 0; i < n; ++i) {
        px[i] = xs[i];
        py[i] = ys[i];
    }
    for (int i = n; i < np; ++i) {
        px[i] = xs[n - 1];
        py[i] = ys[n - 1];
    }

    const auto half = V::set1(0.5f);
    const auto zero = V::set1(0.0f);
    uint32_t mask = 0;
    for (int g = 0; g < np; g += W) {
        auto pxc = V::add(V::toF(V::iload(px + g)), half);
        auto pyc = V::add(V::toF(V::iload(py + g)), half);
        auto ok = V::trueMask();
        for (int e = 0; e < 3; ++e) {
            auto ev = V::add(V::add(V::set1(ctx.edgeE0[e]),
                                    V::mul(V::set1(ctx.edgeEx[e]), pxc)),
                             V::mul(V::set1(ctx.edgeEy[e]), pyc));
            // covers(): reject e < 0, and e == 0 unless the edge is
            // top-left - i.e. a top-left edge rejects e < 0 only,
            // any other edge rejects e <= 0.
            auto fail = ctx.topLeft[e] ? V::cmpLt(ev, zero)
                                       : V::cmpLe(ev, zero);
            ok = V::andnot(fail, ok);
        }
        auto iw = V::add(V::add(V::set1(ctx.iwE0),
                                V::mul(V::set1(ctx.iwEx), pxc)),
                         V::mul(V::set1(ctx.iwEy), pyc));
        ok = V::and_(ok, V::cmpGt(iw, zero));
        mask |= V::moveMask(ok) << g;
    }
    return mask & ((1u << n) - 1);
}

} // namespace simd
} // namespace texcache

#endif // TEXCACHE_SIMD_KERNEL_BODY_HH
