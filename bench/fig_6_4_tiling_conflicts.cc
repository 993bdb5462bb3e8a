/**
 * @file
 * Reproduces Figure 6.4: the effect of tiled rasterization (8x8 pixel
 * tiles) combined with padded or 6-D blocked texture representations on
 * block conflict misses. Textures in 8x8 blocks, 128-byte lines,
 * 2-way set-associative caches (vs a fully associative reference).
 *
 * Panel (a) Town (column-major within and between tiles): tiling alone
 * removes most same-array block conflicts.
 * Panel (b) Flight: its large terrain textures make whole block rows a
 * multiple of the cache size, so tiling alone is NOT enough - padding
 * or 6-D blocking is needed to stop same-column neighbor conflicts.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

constexpr unsigned kLine = 128;

LayoutParams
withKind(LayoutKind kind, uint64_t cache_size)
{
    LayoutParams p;
    p.kind = kind;
    p.blockW = p.blockH = 8;
    p.padBlocks = 4;
    p.coarseBytes = cache_size;
    return p;
}

void
panel(const char *title, BenchScene s)
{
    std::vector<uint64_t> sizes = cacheSizeSweep(1 << 10, 128 << 10);
    TextTable table(title);
    std::vector<std::string> header = {"Series"};
    for (uint64_t sz : sizes)
        header.push_back(fmtBytes(sz));
    table.header(header);

    struct Series
    {
        const char *label;
        bool tiled;
        LayoutKind kind;
        bool fully;
    };
    const Series series[] = {
        {"2way blocked nontiled", false, LayoutKind::Blocked, false},
        {"2way blocked tiled", true, LayoutKind::Blocked, false},
        {"2way padded tiled", true, LayoutKind::PaddedBlocked, false},
        {"2way 6D tiled", true, LayoutKind::Blocked6D, false},
        {"full blocked tiled", true, LayoutKind::Blocked, true},
    };

    for (const Series &ser : series) {
        const TexelTrace &trace =
            store().trace(s, sceneOrder(s, ser.tiled, 8));
        std::vector<std::string> row = {ser.label};
        for (uint64_t size : sizes) {
            // 6-D blocking sizes its super-block to the cache.
            SceneLayout layout(store().scene(s),
                               withKind(ser.kind, size));
            CacheConfig cfg{size, kLine,
                            ser.fully ? CacheConfig::kFullyAssoc : 2u};
            if (!ser.fully && size / kLine < 2) {
                row.push_back("-");
                continue;
            }
            CacheStats stats = runCache(trace, layout, cfg);
            row.push_back(fmtPercent(stats.missRate()));
        }
        table.row(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    panel("Figure 6.4(a): Town-vertical, 8x8 blocks, 128B lines, 8x8 "
          "tiles",
          BenchScene::Town);
    panel("Figure 6.4(b): Flight-horizontal, 8x8 blocks, 128B lines, "
          "8x8 tiles",
          BenchScene::Flight);
    std::cout << "Paper reference: tiling alone fixes Town's block "
                 "conflicts; Flight's big textures also need padding "
                 "or 6-D blocking to approach the FA curve.\n";
    return 0;
}
