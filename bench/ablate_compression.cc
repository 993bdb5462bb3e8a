/**
 * @file
 * Ablation for the paper's future-work question (section 8): how do
 * compressed texture representations (Beers et al. [2]) interact with
 * a texture cache?
 *
 * The compressed layout stores each 8x8 block at a fixed rate; the
 * cache holds compressed data and decompression happens between cache
 * and filter. Two effects compound: (i) each line covers `ratio` times
 * more texture area, shrinking the working set; (ii) each miss fetches
 * the same line size but it carries more texels, so the bandwidth per
 * fragment drops. The harness reports miss rate and memory bandwidth
 * at the Table 7.1 operating point.
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

    struct Choice
    {
        std::string label;
        LayoutParams params;
    };
    std::vector<Choice> choices;
    {
        LayoutParams plain;
        plain.kind = LayoutKind::Blocked;
        plain.blockW = plain.blockH = 8;
        choices.push_back({"uncompressed 8x8", plain});
        for (unsigned ratio : {2u, 4u, 8u}) {
            LayoutParams c;
            c.kind = LayoutKind::CompressedBlocked;
            c.blockW = c.blockH = 8;
            c.compressionRatio = ratio;
            choices.push_back(
                {"compressed " + std::to_string(ratio) + ":1", c});
        }
    }

    TextTable table("Section 8 extension: rendering from compressed "
                    "textures, 32KB 2-way, 128B lines, tiled 8x8");
    table.header({"Scene", "Layout", "MissRate", "BW (MB/s)",
                  "Reduction vs uncached"});

    for (BenchScene s : allBenchScenes()) {
        const TexelTrace &trace =
            store().trace(s, sceneOrder(s, /*tiled=*/true, 8));
        for (const Choice &c : choices) {
            SceneLayout layout(store().scene(s), c.params);
            CacheStats stats = runCache(trace, layout, cache);
            double bw =
                machine.cachedBandwidth(stats.missRate(), kLine);
            table.row({benchSceneName(s), c.label,
                       fmtPercent(stats.missRate()),
                       fmtFixed(bw / 1e6, 0),
                       fmtFixed(machine.uncachedBandwidth() / bw, 1) +
                           "x"});
        }
    }
    table.print(std::cout);
    std::cout << "\nExpectation: each doubling of the compression "
                 "ratio roughly halves miss rate and bandwidth (one "
                 "line covers twice the texture area).\n";
    return 0;
}
