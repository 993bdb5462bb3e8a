/**
 * @file
 * Ablation (extension): the texture filter's cost in texel traffic and
 * memory bandwidth.
 *
 * The paper's machine model assumes trilinear filtering (8 texel reads
 * per fragment, Table 2.1). The cheaper GL 1.0 minification filters
 * trade image quality for traffic: GL_LINEAR_MIPMAP_NEAREST reads 4
 * texels, GL_NEAREST_MIPMAP_NEAREST reads 1. This harness quantifies
 * how much of that per-fragment saving survives the cache - reuse
 * means cache *miss* traffic shrinks less than raw access counts.
 */

#include "bench/bench_util.hh"
#include "cache/bandwidth.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    MachineModel machine;
    constexpr unsigned kLine = 128;
    const CacheConfig cache{32 * 1024, kLine, 2};
    LayoutParams params;
    params.kind = LayoutKind::PaddedBlocked;
    params.blockW = params.blockH = 8;

    struct Mode
    {
        const char *label;
        FilterMode mode;
    };
    const Mode modes[] = {
        {"trilinear (paper)", FilterMode::Trilinear},
        {"bilinear-mip-nearest", FilterMode::BilinearMipNearest},
        {"nearest-mip-nearest", FilterMode::NearestMipNearest},
    };

    TextTable table("Extension: filter mode vs texel traffic and "
                    "memory bandwidth, 32KB 2-way, 128B lines");
    table.header({"Scene", "Filter", "Texels/frag", "MissRate",
                  "BW (MB/s)"});

    for (BenchScene s : {BenchScene::Goblet, BenchScene::Flight}) {
        const Scene &scene = store().scene(s);
        for (const Mode &m : modes) {
            RenderOptions opts;
            opts.writeFramebuffer = false;
            opts.filterMode = m.mode;
            RenderOutput out =
                render(scene, sceneOrder(s, /*tiled=*/true, 8), opts);
            SceneLayout layout(scene, params);
            CacheStats stats = runCache(out.trace, layout, cache);
            double per_frag =
                static_cast<double>(out.stats.texelAccesses) /
                out.stats.fragments;
            // Bandwidth at 50M fragments/s with this filter's access
            // count: misses/frag * line bytes * frag rate.
            double misses_per_frag =
                static_cast<double>(stats.misses) /
                out.stats.fragments;
            double bw = misses_per_frag * kLine *
                        machine.fragmentsPerSecond();
            table.row({benchSceneName(s), m.label,
                       fmtFixed(per_frag, 2),
                       fmtPercent(stats.missRate()),
                       fmtFixed(bw / 1e6, 0)});
        }
    }
    table.print(std::cout);
    std::cout << "\nExpectation: cheaper filters cut accesses 2x/8x "
                 "but cut *memory* bandwidth by less - the cache "
                 "already absorbs most of the overlapping reads that "
                 "trilinear filtering performs.\n";
    return 0;
}
