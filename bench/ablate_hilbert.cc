/**
 * @file
 * Ablation for the paper's footnote 1: "The screen rasterization path
 * that would lead to the smallest working set would follow a
 * Peano-Hilbert order."
 *
 * Compares fully associative miss rates across cache sizes for
 * row-major scan, 8x8 tiled, and Hilbert-curve traversal on the two
 * large-triangle scenes (where traversal order matters most) under the
 * blocked representation.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    constexpr unsigned kLine = 128;
    LayoutParams params;
    params.kind = LayoutKind::Blocked;
    params.blockW = params.blockH = 8;

    std::vector<uint64_t> sizes = cacheSizeSweep(1 << 10, 32 << 10);

    for (BenchScene s : {BenchScene::Guitar, BenchScene::Town}) {
        TextTable table(std::string("Footnote 1: traversal order vs "
                                    "working set, ") +
                        benchSceneName(s) +
                        ", blocked 8x8, 128B lines, FA");
        std::vector<std::string> header = {"Order"};
        for (uint64_t sz : sizes)
            header.push_back(fmtBytes(sz));
        table.header(header);

        struct OrderChoice
        {
            const char *label;
            RasterOrder order;
        };
        const OrderChoice orders[] = {
            {"row-major", RasterOrder::horizontal()},
            {"tiled 8x8", RasterOrder::tiledOrder(8, 8)},
            {"hilbert", RasterOrder::hilbertOrder()},
        };

        for (const OrderChoice &oc : orders) {
            const RenderOutput &out = store().output(s, oc.order);
            SceneLayout layout(store().scene(s), params);
            ShardedStackProfile prof =
                profileTrace(out.trace, layout, kLine);
            std::vector<std::string> row = {oc.label};
            for (uint64_t size : sizes)
                row.push_back(fmtPercent(prof.missRate(size)));
            table.row(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Expectation: hilbert <= tiled <= row-major at small "
                 "cache sizes; all converge to the cold floor.\n";
    return 0;
}
