/**
 * @file
 * Ablation (extension): texture base-address alignment vs cache
 * conflicts.
 *
 * The paper allocates texture arrays with malloc(), which for
 * megabyte arrays means page-aligned bases - every texture starts at
 * the same low address bits and therefore maps to the same cache sets.
 * Section 5.3.3's conflict analysis is intra-texture; this harness
 * measures the *inter-texture* component by sweeping the allocator's
 * base alignment: fine (line-sized) alignment staggers textures across
 * sets, cache-sized alignment piles every texture onto set 0.
 * Scenes with many textures (Town: 51) are the sensitive case.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    constexpr unsigned kLine = 128;

    TextTable table("Extension: texture base alignment vs conflict "
                    "misses, blocked 8x8, 128B lines, tiled 8x8");
    table.header({"Scene", "Cache", "align=128B", "align=4KB",
                  "align=32KB"});

    for (BenchScene s : {BenchScene::Town, BenchScene::Flight}) {
        const TexelTrace &trace =
            store().trace(s, sceneOrder(s, /*tiled=*/true, 8));
        for (CacheConfig cache :
             {CacheConfig{8 * 1024, kLine, 1},
              CacheConfig{8 * 1024, kLine, 2},
              CacheConfig{32 * 1024, kLine, 2}}) {
            std::vector<std::string> row = {benchSceneName(s),
                                            cache.str()};
            for (uint64_t align : {128ull, 4096ull, 32768ull}) {
                LayoutParams params;
                params.kind = LayoutKind::Blocked;
                params.blockW = params.blockH = 8;
                params.baseAlign = align;
                SceneLayout layout(store().scene(s), params);
                CacheStats stats = runCache(trace, layout, cache);
                row.push_back(fmtPercent(stats.missRate()));
            }
            table.row(row);
        }
    }
    table.print(std::cout);
    std::cout << "\nExpectation: coarser base alignment concentrates "
                 "texture bases onto the same sets and raises "
                 "conflict misses at low associativity; a fully "
                 "associative cache would be indifferent.\n";
    return 0;
}
