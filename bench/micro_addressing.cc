/**
 * @file
 * Google-benchmark microbenchmark for texel address computation
 * (sections 5.2.1, 5.3.1, 6.2): the software cost of each memory
 * representation's addressing, corroborating the paper's claim that
 * blocking adds only a couple of adds (in hardware: two adders).
 *
 * `runAddressing` times one TextureLayout::addresses() call per
 * iteration; `runMapPacked` times what the replay engine calls, one
 * SceneLayout::mapPacked() over a pre-generated 64 K-record span of a
 * rendered trace per iteration, with items = records.
 */

#include <benchmark/benchmark.h>

#include "core/scene_layout.hh"
#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"

using namespace texcache;

namespace {

std::vector<LevelDims>
pyramid(unsigned size)
{
    std::vector<LevelDims> d;
    for (unsigned w = size; w >= 1; w /= 2)
        d.push_back({w, w});
    return d;
}

LayoutParams
paramsFor(LayoutKind kind)
{
    LayoutParams p;
    p.kind = kind;
    p.blockW = p.blockH = 8;
    p.padBlocks = 4;
    p.coarseBytes = 32 * 1024;
    return p;
}

void
runAddressing(benchmark::State &state, LayoutKind kind)
{
    AddressSpace space;
    TextureLayout lay(paramsFor(kind), pyramid(256), space);

    // A texture-walk access pattern touching varied levels.
    uint32_t x = 12345;
    Addr out[3];
    for (auto _ : state) {
        x = x * 1664525u + 1013904223u;
        uint16_t level = (x >> 28) & 7;
        uint16_t w = static_cast<uint16_t>(256 >> level);
        TexelTouch t{level, static_cast<uint16_t>(x & (w - 1)),
                     static_cast<uint16_t>((x >> 8) & (w - 1))};
        unsigned n = lay.addresses(t, out);
        benchmark::DoNotOptimize(out[0]);
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations());
}

/** The scene and the first SceneLayout::kMapChunk records of its
 *  horizontal trace, rendered once for every mapPacked case. */
struct MapSpan
{
    Scene scene = makeQuadTestScene(256, 512, 4.0f);
    std::vector<uint64_t> records;

    MapSpan()
    {
        RenderOptions opts;
        opts.writeFramebuffer = false;
        RenderOutput out = render(scene, RasterOrder::horizontal(), opts);
        const auto &packed = out.trace.packed();
        records.assign(packed.begin(),
                       packed.begin() + std::min(packed.size(),
                                                 SceneLayout::kMapChunk));
    }
};

void
runMapPacked(benchmark::State &state, LayoutKind kind)
{
    static const MapSpan span;
    SceneLayout layout(span.scene, paramsFor(kind));
    std::vector<Addr> addrs;
    for (auto _ : state) {
        layout.mapPacked(span.records.data(), span.records.size(), addrs);
        benchmark::DoNotOptimize(addrs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * span.records.size());
}

} // namespace

BENCHMARK_CAPTURE(runAddressing, williams, LayoutKind::Williams);
BENCHMARK_CAPTURE(runAddressing, nonblocked, LayoutKind::Nonblocked);
BENCHMARK_CAPTURE(runAddressing, blocked, LayoutKind::Blocked);
BENCHMARK_CAPTURE(runAddressing, padded, LayoutKind::PaddedBlocked);
BENCHMARK_CAPTURE(runAddressing, blocked6d, LayoutKind::Blocked6D);
BENCHMARK_CAPTURE(runAddressing, compressed,
                  LayoutKind::CompressedBlocked);

BENCHMARK_CAPTURE(runMapPacked, williams, LayoutKind::Williams);
BENCHMARK_CAPTURE(runMapPacked, nonblocked, LayoutKind::Nonblocked);
BENCHMARK_CAPTURE(runMapPacked, blocked, LayoutKind::Blocked);
BENCHMARK_CAPTURE(runMapPacked, padded, LayoutKind::PaddedBlocked);
BENCHMARK_CAPTURE(runMapPacked, blocked6d, LayoutKind::Blocked6D);
BENCHMARK_CAPTURE(runMapPacked, compressed,
                  LayoutKind::CompressedBlocked);

BENCHMARK_MAIN();
