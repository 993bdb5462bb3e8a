/**
 * @file
 * Reproduces Figure 6.2: the effect of tiled rasterization on the
 * working-set size (Guitar scene, blocked 8x8 textures, 128-byte
 * lines, fully associative caches).
 *
 * Going from tiny tiles to medium tiles (a) shrinks the working set -
 * miss rates drop at cache sizes that previously missed; going from
 * medium to very large tiles (b) converges back to the non-tiled
 * behavior. A second table shows Goblet, whose small triangles make it
 * insensitive to the tile size (section 6.1's robustness claim).
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

void
panel(const char *title, BenchScene s)
{
    constexpr unsigned kLine = 128;
    LayoutParams params = blockedForLine(256); // 8x8 blocks
    params.blockW = params.blockH = 8;

    std::vector<uint64_t> sizes = cacheSizeSweep(1 << 10, 64 << 10);
    TextTable table(title);
    std::vector<std::string> header = {"Tiles"};
    for (uint64_t sz : sizes)
        header.push_back(fmtBytes(sz));
    table.header(header);

    const unsigned tile_sizes[] = {0, 2, 4, 8, 16, 32, 64, 128};
    for (unsigned tile : tile_sizes) {
        RasterOrder order = sceneOrder(s, tile != 0, tile);
        const TexelTrace &trace = store().trace(s, order);
        SceneLayout layout(store().scene(s), params);
        ShardedStackProfile prof = profileTrace(trace, layout, kLine);
        std::vector<std::string> row = {
            tile == 0 ? "nontiled"
                      : std::to_string(tile) + "x" +
                            std::to_string(tile)};
        for (uint64_t size : sizes)
            row.push_back(fmtPercent(prof.missRate(size)));
        table.row(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    panel("Figure 6.2: Guitar, 8x8 blocks, 128B lines, FA, miss rate "
          "vs cache size per tile size",
          BenchScene::Guitar);
    panel("Robustness check (section 6.1): Goblet, same configuration",
          BenchScene::Goblet);
    std::cout << "Paper reference: medium tiles minimize the working "
                 "set for large-triangle scenes (Guitar); small-triangle "
                 "scenes (Goblet) are unaffected by tiling.\n";
    return 0;
}
