/**
 * @file
 * Reproduces Figure 5.5: miss rate versus matched line/block size for
 * all four scenes on fully associative 32 KB caches.
 *
 * At 32 KB the remaining misses are mostly cold, so growing the
 * matched line+block size keeps cutting the miss rate: the paper
 * reports e.g. Flight 2.8% -> 0.87% and Town 0.8% -> 0.21% going from
 * 32 B to 128 B.
 *
 * The 4 scenes x 5 line sizes are independent FA runs executed as one
 * parallel sweep after the serial render/layout phase.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    constexpr uint64_t kCacheSize = 32 * 1024;
    const unsigned lines[] = {16, 32, 64, 128, 256};

    struct Point
    {
        const TexelTrace *trace;
        std::shared_ptr<SceneLayout> layout;
        unsigned line;
    };
    std::vector<Point> points;
    for (BenchScene s : allBenchScenes()) {
        const TexelTrace &trace = store().trace(s, sceneOrder(s));
        for (unsigned line : lines)
            points.push_back({&trace,
                              std::make_shared<SceneLayout>(
                                  store().scene(s), blockedForLine(line)),
                              line});
    }

    auto results = Sweep::run(points, [](const Point &p) {
        return runCache(*p.trace, *p.layout,
                        {kCacheSize, p.line, CacheConfig::kFullyAssoc})
            .missRate();
    });

    TextTable table("Figure 5.5: miss rate vs matched line/block size, "
                    "FA 32KB");
    std::vector<std::string> header = {"Scene"};
    for (unsigned l : lines)
        header.push_back(fmtBytes(l) + " (" +
                         std::to_string(blockedForLine(l).blockW) + "x" +
                         std::to_string(blockedForLine(l).blockH) + ")");
    table.header(header);

    size_t i = 0;
    for (BenchScene s : allBenchScenes()) {
        std::vector<std::string> row = {benchSceneName(s)};
        for (unsigned l : lines) {
            (void)l;
            row.push_back(fmtPercent(results[i++].value));
        }
        table.row(row);
    }
    table.print(std::cout);
    std::cout << "\nPaper reference @32B->128B: Flight 2.8%->0.87%, "
                 "Goblet 1.5%->0.41%, Guitar 1.2%->0.36%, Town "
                 "0.8%->0.21%.\n";

    dumpStats("fig_5_5", [&](RunManifest &m, stats::Group &root) {
        m.setScene("all");
        m.config("cache_bytes", kCacheSize);
        m.config("assoc", "full");
        exportPointTimes(*root.findGroup("sweep"), results);
        size_t k = 0;
        double sum = 0.0;
        for (BenchScene s : allBenchScenes()) {
            stats::Group &sg = root.group(benchSceneName(s));
            for (unsigned l : lines) {
                double r = results[k++].value;
                sg.real("line_" + std::to_string(l), r,
                        "miss rate at the matched line/block size");
                sum += r;
            }
        }
        m.metric("mean_miss_rate", sum / static_cast<double>(k),
                 "exact");
    });
    return 0;
}
