/**
 * @file
 * Batched fragment kernels for the tile engine's trace generation.
 *
 * A SpanKernels table holds function pointers for one ISA level
 * (isa.hh): `touches` turns a batch of up to kSpanBatch covered pixels
 * of one triangle into their texel-touch records, `coverMask` batches
 * the top-left coverage test for scattered pixels (the Hilbert
 * traversal). Per fragment, `touches` is the exact float sequence of
 *
 *     TriangleSetup::attributesAt -> computeLod ->
 *     sampleMipMapMode (touches only) -> packSampleRecords
 *
 * without the sampler's color fetches and blends, vectorized
 * *across* fragments, so every lane reproduces the scalar
 * reference bit for bit (tests/test_simd_kernels.cc fuzzes this for
 * every compiled level, unaligned tails included).
 */

#ifndef TEXCACHE_SIMD_SPAN_KERNELS_HH
#define TEXCACHE_SIMD_SPAN_KERNELS_HH

#include <cstdint>

#include "raster/triangle.hh"
#include "simd/isa.hh"
#include "texture/sampler.hh"

namespace texcache {

class MipMap;

namespace simd {

/** Fragments per kernel call: one AVX2 vector, two SSE4.1 vectors. */
constexpr int kSpanBatch = 8;

/**
 * Everything the kernels need about one raster task: the triangle's
 * attribute planes and edge functions, the texture and the filter
 * configuration. Built once per (triangle, work unit) by
 * makeSpanContext.
 */
struct SpanContext
{
    // 1/w, u/w, v/w attribute planes (value = e0 + ex*px + ey*py).
    float iwE0, iwEx, iwEy;
    float uwE0, uwEx, uwEy;
    float vwE0, vwEx, vwEy;
    // Edge functions and their top-left ownership for coverMask.
    float edgeE0[3], edgeEx[3], edgeEy[3];
    bool topLeft[3];
    // Level-0 texture dimensions (LOD derivative scaling).
    float texW, texH;
    const MipMap *mip;
    uint16_t texture;
    FilterMode mode;
    WrapMode wrap;
};

SpanContext makeSpanContext(const TriangleSetup &setup, const MipMap &mip,
                            uint16_t texture, float texW, float texH,
                            FilterMode mode,
                            WrapMode wrap = WrapMode::Repeat);

/**
 * Per-fragment results of one `touches` call, SoA across the batch.
 * Exactly what the tile renderer's batch flush consumes: the filter
 * statistics, the first touch (the LOD histogram's level and the
 * texel tracing context) and the packed trace records.
 */
struct SpanBatchOut
{
    FilterKind kind[kSpanBatch];
    uint8_t numTouches[kSpanBatch];
    uint16_t firstLevel[kSpanBatch]; ///< touches[0].level
    uint16_t firstU[kSpanBatch];     ///< touches[0].u (wrapped)
    uint16_t firstV[kSpanBatch];
    /** Cumulative end offset of each fragment's records. */
    uint32_t recEnd[kSpanBatch];
    /** Packed TexelRecords in packSampleRecords order. */
    uint64_t records[kSpanBatch * 8];
};

/** The kernel entry points of one ISA level. */
struct SpanKernels
{
    /**
     * Texel touches of fragments (xs[i], ys[i]) for i < n,
     * 1 <= n <= kSpanBatch. Every pixel must be covered (the span
     * interior / a coverMask survivor). Lanes beyond n are padding
     * inside the kernel and must not be read from @p out.
     */
    void (*touches)(const SpanContext &ctx, const int32_t *xs,
                    const int32_t *ys, int n, SpanBatchOut &out);

    /**
     * Coverage of pixels (xs[i], ys[i]) for i < n: bit i is set iff
     * TriangleSetup::covers(xs[i], ys[i]) - same edge tests, same
     * top-left rule, same positive-1/w requirement.
     */
    uint32_t (*coverMask)(const SpanContext &ctx, const int32_t *xs,
                          const int32_t *ys, int n);
};

/** The kernel table of the active ISA level (never null). */
const SpanKernels &kernels();

/** The kernel table of one level; null when not compiled in. */
const SpanKernels *kernelsFor(Isa isa);

// Per-ISA translation units (kernels_<isa>.cc). Each returns null
// when its instruction set was not available at build time.
const SpanKernels *scalarKernels();
const SpanKernels *sse41Kernels();
const SpanKernels *avx2Kernels();

} // namespace simd
} // namespace texcache

#endif // TEXCACHE_SIMD_SPAN_KERNELS_HH
