/**
 * @file
 * Reproduces Table 7.1: memory bandwidth requirements in MB/s (miss
 * rates in parentheses) at the machine model's peak rate of 50 million
 * textured fragments per second.
 *
 * Configuration matches the paper: blocked+padded representation (pad =
 * 4 blocks per block row), 8x8-pixel tiled rasterization, caches of
 * 4 KB and 32 KB (2-way) and 128 KB (direct mapped), line sizes 32/64
 * (4x4 blocks) and 128 bytes (8x8 blocks).
 *
 * The headline reproduction target: a 32 KB cache needs 3x-15x less
 * memory bandwidth than the 1.6 GB/s of an equivalent cache-less
 * system.
 */

#include "bench/bench_util.hh"
#include "cache/bandwidth.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    MachineModel machine;

    struct CacheChoice
    {
        const char *label;
        uint64_t size;
        unsigned assoc;
    };
    const CacheChoice caches[] = {
        {"4KB 2-way", 4 * 1024, 2},
        {"32KB 2-way", 32 * 1024, 2},
        {"128KB direct", 128 * 1024, 1},
    };
    struct LineChoice
    {
        unsigned line;
        unsigned bw, bh;
    };
    const LineChoice lines[] = {{32, 4, 4}, {64, 4, 4}, {128, 8, 8}};

    TextTable table(
        "Table 7.1: memory bandwidth in MB/s (miss rate) at 50M "
        "fragments/s; blocked+padded, tiled 8x8");
    std::vector<std::string> header = {"Scene"};
    for (const CacheChoice &c : caches)
        for (const LineChoice &l : lines)
            header.push_back(std::string(c.label) + " " +
                             fmtBytes(l.line));
    table.header(header);

    // Paper's scene order in Table 7.1.
    const BenchScene order[] = {BenchScene::Flight, BenchScene::Guitar,
                                BenchScene::Town, BenchScene::Goblet};

    double best_reduction = 0.0, worst_reduction = 1e30;
    for (BenchScene s : order) {
        const TexelTrace &trace =
            store().trace(s, sceneOrder(s, /*tiled=*/true, 8));
        std::vector<std::string> row = {benchSceneName(s)};
        for (const CacheChoice &c : caches) {
            for (const LineChoice &l : lines) {
                LayoutParams params;
                params.kind = LayoutKind::PaddedBlocked;
                params.blockW = l.bw;
                params.blockH = l.bh;
                params.padBlocks = 4;
                SceneLayout layout(store().scene(s), params);
                CacheStats stats = runCache(trace, layout,
                                            {c.size, l.line, c.assoc});
                double bw =
                    machine.cachedBandwidth(stats.missRate(), l.line);
                row.push_back(fmtFixed(bw / 1e6, 0) + " (" +
                              fmtFixed(stats.missRate() * 100, 2) +
                              ")");
                if (c.size == 32 * 1024) {
                    double red = machine.reductionFactor(
                        stats.missRate(), l.line);
                    best_reduction = std::max(best_reduction, red);
                    worst_reduction = std::min(worst_reduction, red);
                }
            }
        }
        table.row(row);
    }
    table.print(std::cout);

    std::cout << "\nUncached system bandwidth: "
              << fmtFixed(machine.uncachedBandwidth() / 1e9, 2)
              << " GB/s\n32KB-cache bandwidth reduction across "
                 "scenes/lines: "
              << fmtFixed(worst_reduction, 1) << "x to "
              << fmtFixed(best_reduction, 1)
              << "x (paper: 3x to 15x)\n";
    return 0;
}
