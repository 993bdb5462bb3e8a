/**
 * @file
 * Ablation for section 7.1.1: hiding the ~50-cycle miss latency with a
 * prefetch FIFO between a lead (address-computing) rasterizer and the
 * texturing rasterizer, Talisman-style.
 *
 * Reports achieved fragments/second and pipeline efficiency versus
 * FIFO depth on the Goblet and Town scenes with the paper's Table 7.1
 * cache (32 KB, 2-way, 128 B lines, blocked+padded, tiled). The
 * reproduction target: without prefetching the pipeline loses a large
 * fraction of its 50 M fragments/s; with a modest FIFO the latency is
 * almost fully hidden and throughput is bandwidth-bound, which is the
 * paper's robustness argument.
 */

#include "bench/bench_util.hh"
#include "timing/prefetch_model.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    CacheConfig cache{32 * 1024, 128, 2};
    LayoutParams params;
    params.kind = LayoutKind::PaddedBlocked;
    params.blockW = params.blockH = 8;
    params.padBlocks = 4;

    const unsigned depths[] = {0, 2, 8, 32, 128, 512};

    TextTable table("Section 7.1.1: prefetch FIFO depth vs achieved "
                    "fragment rate (Mfrag/s) and efficiency");
    std::vector<std::string> header = {"Scene"};
    for (unsigned d : depths)
        header.push_back("fifo=" + std::to_string(d));
    table.header(header);

    for (BenchScene s :
         {BenchScene::Goblet, BenchScene::Town, BenchScene::Flight}) {
        const TexelTrace &trace =
            store().trace(s, sceneOrder(s, /*tiled=*/true, 8));
        SceneLayout layout(store().scene(s), params);
        std::vector<std::string> row = {benchSceneName(s)};
        for (unsigned d : depths) {
            TimingConfig t;
            t.fifoDepth = d;
            TimingResult r =
                simulateTiming(trace, layout, cache, t);
            row.push_back(
                fmtFixed(r.fragmentsPerSecond(t.clockHz) / 1e6, 1) +
                " (" +
                fmtPercent(r.efficiency(t.cyclesPerFragment), 0) + ")");
        }
        table.row(row);
    }
    table.print(std::cout);
    std::cout << "\nMachine peak: 50.0 Mfrag/s. Paper reference: the "
                 "memory latency must be hidden to sustain peak; a "
                 "prefetch FIFO achieves this.\n";
    return 0;
}
