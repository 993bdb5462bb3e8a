/**
 * @file
 * Reproduces Figure 5.2: miss rate versus cache size for the base
 * nonblocked representation, fully associative caches, 32-byte lines.
 *
 * Panel (a) rasterizes horizontally, panel (b) vertically. The paper's
 * headline observations to reproduce:
 *  - first-level working sets of 4-16 KB (sharp miss-rate drops);
 *  - cold-miss floors below ~3% at large sizes (Flight highest);
 *  - the Town scene degrading badly under vertical rasterization
 *    because its textures appear upright on screen (the base
 *    representation's orientation sensitivity).
 *
 * Every (scene, direction) cell of the sweep is one single-pass
 * FA capacity sweep (runFaSweep); the eight passes run in parallel
 * on the sweep pool after the traces are rendered (or loaded from
 * the trace cache) up front, and each shards its own pass into time
 * segments on the same pool, so a long curve no longer holds up the
 * rest.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

struct Point
{
    BenchScene scene;
    ScanDirection dir;
    const TexelTrace *trace;
    std::shared_ptr<SceneLayout> layout;
};

struct Curve
{
    std::vector<double> rates;
    uint64_t workingSet = 0;
};

void
panel(const char *title, ScanDirection dir,
      const std::vector<uint64_t> &sizes,
      const std::vector<SweepResult<Curve>> &curves, size_t offset)
{
    TextTable table(title);
    std::vector<std::string> header = {"Scene"};
    for (uint64_t s : sizes)
        header.push_back(fmtBytes(s));
    header.push_back("WorkingSet");
    table.header(header);

    size_t i = offset;
    for (BenchScene s : allBenchScenes()) {
        (void)dir;
        const Curve &c = curves[i++].value;
        std::vector<std::string> row = {benchSceneName(s)};
        for (double r : c.rates)
            row.push_back(fmtPercent(r));
        row.push_back(fmtBytes(c.workingSet));
        table.row(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::vector<uint64_t> sizes = cacheSizeSweep(1 << 10, 512 << 10);

    // Render (or load) traces and build layouts serially, then
    // simulate in parallel: both are read-only inside the sweep.
    LayoutParams params;
    params.kind = LayoutKind::Nonblocked;
    std::vector<Point> points;
    for (ScanDirection dir :
         {ScanDirection::Horizontal, ScanDirection::Vertical}) {
        for (BenchScene s : allBenchScenes()) {
            RasterOrder order;
            order.dir = dir;
            points.push_back(
                {s, dir, &store().trace(s, order),
                 std::make_shared<SceneLayout>(store().scene(s),
                                               params)});
        }
    }

    auto curves = Sweep::run(points, [&](const Point &p) {
        std::vector<CacheStats> stats =
            runFaSweep(*p.trace, *p.layout, 32, sizes);
        Curve c;
        for (const CacheStats &s : stats)
            c.rates.push_back(s.missRate());
        c.workingSet = firstWorkingSet(c.rates, sizes);
        return c;
    });

    panel("Figure 5.2(a): base representation, horizontal "
          "rasterization, FA, 32B lines",
          ScanDirection::Horizontal, sizes, curves, 0);
    panel("Figure 5.2(b): base representation, vertical rasterization, "
          "FA, 32B lines",
          ScanDirection::Vertical, sizes, curves,
          allBenchScenes().size());
    std::cout << "Paper reference: working sets Flight 4KB, Town 8KB "
                 "(16KB vertical), Guitar 16KB, Goblet 16KB; Town's "
                 "small-cache miss rates rise sharply under vertical "
                 "rasterization.\n";

    dumpStats("fig_5_2", [&](RunManifest &m, stats::Group &root) {
        m.setScene("all");
        m.config("layout", "nonblocked");
        m.config("line_bytes", uint64_t(32));
        m.config("assoc", "full");
        m.config("sizes", std::to_string(sizes.front()) + ".." +
                              std::to_string(sizes.back()));
        exportPointTimes(*root.findGroup("sweep"), curves);
        for (size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            const Curve &c = curves[i].value;
            std::string tag =
                std::string(benchSceneName(p.scene)) + "_" +
                (p.dir == ScanDirection::Horizontal ? "h" : "v");
            stats::Group &g = root.group(tag);
            g.constant("working_set_bytes", c.workingSet,
                       "first size whose miss rate nears the floor");
            g.real("miss_rate_min", c.rates.back(),
                   "miss rate at the largest swept size");
            g.real("miss_rate_max", c.rates.front(),
                   "miss rate at the smallest swept size");
            // The simulation is deterministic: pin each curve's working
            // set exactly so any simulator change shows up in CI.
            m.metric("working_set_" + tag,
                     static_cast<double>(c.workingSet), "exact");
        }
    });
    return 0;
}
