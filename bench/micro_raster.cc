/**
 * @file
 * Google-benchmark microbenchmark for the rasterizer and sampler hot
 * paths (fragments/second through triangle traversal and mip-mapped
 * trilinear filtering), followed by the end-to-end trace-generation
 * workload: all four Table 4.1 scenes rendered at the paper's scan
 * direction through (a) the serial reference renderer, (b) the tile
 * engine on one thread and (c) the tile engine on N threads. All
 * three must produce byte-identical traces; the wall-clocks and
 * fragments/s land in BENCH_trace_gen.json, which tools/check_bench.py
 * gates in CI.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/sweep.hh"
#include "img/procedural.hh"
#include "pipeline/renderer.hh"
#include "pipeline/tile_render.hh"
#include "raster/rasterizer.hh"
#include "raster/span_rasterizer.hh"
#include "scene/benchmarks.hh"
#include "simd/isa.hh"
#include "simd/span_kernels.hh"
#include "texture/sampler.hh"

using namespace texcache;

namespace {

ScreenVertex
sv(float x, float y, float w, float u, float v)
{
    ScreenVertex r;
    r.x = x;
    r.y = y;
    r.z = 0.5f;
    r.invW = 1.0f / w;
    r.uOverW = u / w;
    r.vOverW = v / w;
    return r;
}

void
rasterizeBigTriangle(benchmark::State &state)
{
    RasterOrder order = state.range(0) == 0
                            ? RasterOrder::horizontal()
                            : RasterOrder::tiledOrder(8, 8);
    TriangleSetup tri(sv(0, 0, 1, 0, 0), sv(255, 0, 2, 1, 0),
                      sv(0, 255, 2, 0, 1));
    uint64_t frags = 0;
    for (auto _ : state) {
        frags = 0;
        rasterizeTriangle(tri, 256, 256, order,
                          [&](const Fragment &f) {
                              benchmark::DoNotOptimize(f.u);
                              ++frags;
                          });
    }
    state.SetItemsProcessed(state.iterations() * frags);
    state.counters["fragments"] = static_cast<double>(frags);
}

void
trilinearSample(benchmark::State &state)
{
    static MipMap mip(makeChecker(256, 32, Rgba8{255, 255, 255, 255},
                                  Rgba8{0, 0, 0, 255}));
    uint32_t x = 99;
    for (auto _ : state) {
        x = x * 1664525u + 1013904223u;
        float u = static_cast<float>(x & 0xffff) / 65536.0f;
        float v = static_cast<float>((x >> 16) & 0x7fff) / 32768.0f;
        float lambda = static_cast<float>((x >> 28) & 7) * 0.7f;
        SampleResult s = sampleMipMap(mip, u, v, lambda);
        benchmark::DoNotOptimize(s.color.x);
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * The SIMD hot-loop measurement behind the gated `simd_speedup`
 * metric: the span kernels (attributes + LOD + level select + address
 * generation + record packing, simd/span_kernels.hh) over the covered
 * pixels of a large perspective triangle, forced-scalar vs the
 * dispatched ISA level. Outputs are asserted byte-identical lane for
 * lane before anything is timed, and each side takes the minimum of
 * several repetitions (this is a single-digit-ns/fragment loop; on a
 * loaded box the mean drifts, the minimum doesn't). The end-to-end
 * engine ratio stays a report metric: statistics and trace folding
 * and span setup are shared scalar work, so Amdahl caps it well below the
 * kernel ratio.
 */
std::pair<double, double>
spanKernelSpeedup()
{
    MipMap mip(makeChecker(256, 32, Rgba8{255, 255, 255, 255},
                           Rgba8{0, 0, 0, 255}));
    TriangleSetup tri(sv(0, 0, 1, 0, 0), sv(255, 0, 2, 1, 0),
                      sv(0, 255, 2, 0, 1));
    std::vector<int32_t> xs, ys;
    for (int y = 0; y < 256; ++y)
        for (int x = 0; x < 256; ++x)
            if (tri.covers(x, y)) {
                xs.push_back(x);
                ys.push_back(y);
            }
    const size_t n = xs.size() - xs.size() % simd::kSpanBatch;
    simd::SpanContext ctx = simd::makeSpanContext(
        tri, mip, 3, 256.0f, 32.0f, FilterMode::Trilinear);

    const simd::SpanKernels *scalar =
        simd::kernelsFor(simd::Isa::Scalar);
    const simd::SpanKernels *best = &simd::kernels();

    // Identity first: every lane of every batch, both kernel tables.
    for (size_t i = 0; i < n; i += simd::kSpanBatch) {
        simd::SpanBatchOut a, b;
        scalar->touches(ctx, &xs[i], &ys[i], simd::kSpanBatch, a);
        best->touches(ctx, &xs[i], &ys[i], simd::kSpanBatch, b);
        for (int l = 0; l < simd::kSpanBatch; ++l)
            panic_if(a.recEnd[l] != b.recEnd[l] ||
                         a.firstU[l] != b.firstU[l] ||
                         a.firstV[l] != b.firstV[l],
                     "SIMD span kernel diverged from scalar at batch ",
                     i, " lane ", l);
        panic_if(std::memcmp(a.records, b.records,
                             a.recEnd[simd::kSpanBatch - 1] *
                                 sizeof(uint64_t)) != 0,
                 "SIMD span kernel records diverged at batch ", i);
    }

    auto timeKernel = [&](const simd::SpanKernels *k) {
        double bestMs = 1e300;
        simd::SpanBatchOut out;
        for (int rep = 0; rep < 5; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            uint64_t sink = 0;
            for (int pass = 0; pass < 40; ++pass)
                for (size_t i = 0; i < n; i += simd::kSpanBatch) {
                    k->touches(ctx, &xs[i], &ys[i], simd::kSpanBatch,
                               out);
                    sink += out.recEnd[simd::kSpanBatch - 1];
                }
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            benchmark::DoNotOptimize(sink);
            bestMs = std::min(bestMs, ms);
        }
        return bestMs;
    };
    return {timeKernel(scalar), timeKernel(best)};
}

/** Scoped TEXCACHE_THREADS override (restores the prior value). */
class ThreadEnvOverride
{
  public:
    explicit ThreadEnvOverride(const char *value)
    {
        const char *old = std::getenv("TEXCACHE_THREADS");
        had_ = old != nullptr;
        if (old)
            saved_ = old;
        setenv("TEXCACHE_THREADS", value, 1);
    }
    ~ThreadEnvOverride()
    {
        if (had_)
            setenv("TEXCACHE_THREADS", saved_.c_str(), 1);
        else
            unsetenv("TEXCACHE_THREADS");
    }

  private:
    bool had_;
    std::string saved_;
};

/**
 * The trace-generation workload: render all four benchmark scenes at
 * their paper scan direction, capturing the texel trace (framebuffer
 * off, as TraceStore renders for the figures). The reference serial
 * renderer is the "before"; the tile engine on one thread isolates
 * the hot-path surgery (span stepping, touch-only SIMD kernels, batched
 * trace appends); the tile engine on N threads adds the parallelism.
 * Byte-identical traces across all three are asserted, so the timing
 * comparison can never drift away from correctness.
 */
void
traceGenWorkload()
{
    // Parallel-pass width: honor an explicit TEXCACHE_THREADS, else 8
    // (the speedup target in EXPERIMENTS.md is quoted at 8 workers).
    const char *env = std::getenv("TEXCACHE_THREADS");
    std::string nThreads = env && *env ? env : "8";

    struct Run
    {
        BenchScene id;
        Scene scene;
        RasterOrder order;
    };
    std::vector<Run> runs;
    for (BenchScene s : allBenchScenes())
        runs.push_back({s, makeScene(s), benchutil::sceneOrder(s)});

    using Renderer = RenderOutput (*)(const Scene &, const RasterOrder &,
                                      const RenderOptions &);
    auto renderAll = [&](Renderer renderer) {
        std::vector<RenderOutput> outs;
        outs.reserve(runs.size());
        auto t0 = std::chrono::steady_clock::now();
        for (const Run &r : runs) {
            RenderOptions opts;
            opts.writeFramebuffer = false;
            outs.push_back(renderer(r.scene, r.order, opts));
        }
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        return std::make_pair(std::move(outs), ms);
    };

    auto [ref, refMs] = renderAll(renderReference);

    const simd::Isa isa = simd::activeIsa();
    std::vector<RenderOutput> scalarOut, engine1, engineN;
    double scalarMs = 0.0, engine1Ms = 0.0, engineNMs = 0.0;
    unsigned parThreads = 0;
    {
        // Forced-scalar tile engine: the same code path as engine1
        // below with the span kernels pinned to the scalar level, so
        // scalarMs / engine1Ms is the end-to-end SIMD win (reported
        // as simd_speedup_end_to_end; the gated simd_speedup is the
        // kernel hot-loop ratio from spanKernelSpeedup()).
        ThreadEnvOverride one("1");
        simd::setActiveIsa(simd::Isa::Scalar);
        auto r = renderAll(renderTiled);
        simd::setActiveIsa(isa);
        scalarOut = std::move(r.first);
        scalarMs = r.second;
    }
    {
        ThreadEnvOverride one("1");
        auto r = renderAll(renderTiled);
        engine1 = std::move(r.first);
        engine1Ms = r.second;
    }
    {
        ThreadEnvOverride n(nThreads.c_str());
        parThreads = Sweep::threadCount();
        auto r = renderAll(renderTiled);
        engineN = std::move(r.first);
        engineNMs = r.second;
    }

    // The engine must reproduce the reference byte for byte - at
    // every ISA level; a timing win that changes the trace would be
    // meaningless.
    uint64_t fragments = 0, texels = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        panic_if(ref[i].trace.packed() != engine1[i].trace.packed() ||
                     ref[i].trace.packed() != engineN[i].trace.packed() ||
                     ref[i].trace.packed() != scalarOut[i].trace.packed(),
                 "tile engine trace diverged from the reference on ",
                 benchSceneName(runs[i].id));
        panic_if(ref[i].stats.fragments != engineN[i].stats.fragments ||
                     ref[i].stats.texelAccesses !=
                         engineN[i].stats.texelAccesses,
                 "tile engine stats diverged from the reference on ",
                 benchSceneName(runs[i].id));
        fragments += ref[i].stats.fragments;
        texels += ref[i].stats.texelAccesses;
    }

    double refFps = fragments / (refMs / 1e3);
    double scalarFps = fragments / (scalarMs / 1e3);
    double serialFps = fragments / (engine1Ms / 1e3);
    double parallelFps = fragments / (engineNMs / 1e3);
    auto [kScalarMs, kBestMs] = spanKernelSpeedup();
    double simdSpeedup = kScalarMs / kBestMs;
    double simdEndToEnd = scalarMs / engine1Ms;
    const unsigned cores = std::thread::hardware_concurrency();

    TextTable table("table_4_1 trace generation: 4 scenes at the "
                    "paper scan direction, trace capture on");
    table.header(
        {"Path", "ISA", "Threads", "Wall(ms)", "Mfrag/s", "Speedup"});
    table.row({"reference", "scalar", "1", fmtFixed(refMs, 1),
               fmtFixed(refFps / 1e6, 2), "1.00"});
    table.row({"tile engine", "scalar", "1", fmtFixed(scalarMs, 1),
               fmtFixed(scalarFps / 1e6, 2),
               fmtFixed(refMs / scalarMs, 2)});
    table.row({"tile engine", simd::isaName(isa), "1",
               fmtFixed(engine1Ms, 1), fmtFixed(serialFps / 1e6, 2),
               fmtFixed(refMs / engine1Ms, 2)});
    table.row({"tile engine", simd::isaName(isa),
               std::to_string(parThreads), fmtFixed(engineNMs, 1),
               fmtFixed(parallelFps / 1e6, 2),
               fmtFixed(refMs / engineNMs, 2)});
    table.print(std::cout);

    std::cout << "\ntrace generation (" << fragments << " fragments, "
              << texels << " texel accesses, isa=" << simd::isaName(isa)
              << ", " << cores << " cores): "
              << fmtFixed(refMs / engineNMs, 2) << "x at " << parThreads
              << " threads, " << fmtFixed(refMs / engine1Ms, 2)
              << "x single-thread; span kernels "
              << fmtFixed(simdSpeedup, 2)
              << "x over forced-scalar (end-to-end "
              << fmtFixed(simdEndToEnd, 2) << "x)\n";

    benchutil::dumpStats("trace_gen", [&](RunManifest &m,
                                          stats::Group &root) {
        m.config("workload", "table_4_1_trace_gen");
        m.config("threads", uint64_t(parThreads));
        m.config("scenes", uint64_t(runs.size()));
        m.config("hardware_concurrency", uint64_t(cores));
        m.config("simd_isa", simd::isaName(isa));

        // Determinism pins: any pipeline change that alters what the
        // scenes generate fails the gate exactly.
        m.metric("fragments", double(fragments), "exact");
        m.metric("texel_accesses", double(texels), "exact");
        // Throughput gates: machine-dependent, wide tolerance.
        m.metric("serial_fragments_per_sec", serialFps, "higher", 0.5);
        // Parallel throughput is only a meaningful gate with real
        // cores behind the workers: on a 1-2 core host, 8 workers
        // time-slice one pipeline and land *below* the single-thread
        // engine (scheduling overhead with zero added parallelism),
        // which is exactly what the committed baseline from a 1-core
        // box shows (3.16 Mfrag/s parallel vs 3.99 serial). Gate on
        // >= 4 cores, report otherwise; CI's multi-core runners also
        // assert the fresh speedup directly.
        m.metric("parallel_fragments_per_sec", parallelFps,
                 cores >= 4 ? "higher" : "report", 0.5);
        // SIMD win in the span-kernel hot loop (attributes + LOD +
        // addressing + packing), forced-scalar vs the dispatched
        // level, byte-identity asserted before timing. Only a gate
        // when the dispatcher actually selected a vector level. The
        // end-to-end engine ratio is Amdahl-capped by the shared
        // scalar work (trace capture, statistics folding, span
        // setup), so it is reported, not gated.
        m.metric("simd_speedup", simdSpeedup,
                 isa != simd::Isa::Scalar ? "higher" : "report", 0.25);
        m.metric("simd_speedup_end_to_end", simdEndToEnd, "report");
        m.metric("kernel_scalar_wall_ms", kScalarMs, "report");
        m.metric("kernel_best_wall_ms", kBestMs, "report");
        m.metric("scalar_wall_ms", scalarMs, "report");
        // Shape metrics; CI asserts the fresh parallel speedup >= 3
        // on its (known multi-core) runners rather than gating on a
        // baseline that may come from a different core count.
        m.metric("speedup_vs_reference", refMs / engineNMs, "report");
        m.metric("serial_speedup_vs_reference", refMs / engine1Ms,
                 "report");
        m.metric("reference_wall_ms", refMs, "report");
        m.metric("engine_serial_wall_ms", engine1Ms, "report");
        m.metric("parallel_wall_ms", engineNMs, "report");

        stats::Group &sg = root.group("scenes");
        for (size_t i = 0; i < runs.size(); ++i)
            sg.constant(std::string(benchSceneName(runs[i].id)) +
                            "_fragments",
                        ref[i].stats.fragments,
                        "fragments rendered for the scene");
    });
}

} // namespace

void
rasterizeBigTriangleSpans(benchmark::State &state)
{
    TriangleSetup tri(sv(0, 0, 1, 0, 0), sv(255, 0, 2, 1, 0),
                      sv(0, 255, 2, 0, 1));
    uint64_t frags = 0;
    for (auto _ : state) {
        frags = 0;
        rasterizeTriangleSpans(tri, 256, 256,
                               ScanDirection::Horizontal,
                               [&](const Fragment &f) {
                                   benchmark::DoNotOptimize(f.u);
                                   ++frags;
                               });
    }
    state.SetItemsProcessed(state.iterations() * frags);
    state.counters["fragments"] = static_cast<double>(frags);
}

BENCHMARK(rasterizeBigTriangle)
    ->Arg(0)
    ->ArgName("order")
    ->Arg(1);
BENCHMARK(rasterizeBigTriangleSpans);
BENCHMARK(trilinearSample);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    traceGenWorkload();
    return 0;
}
