/**
 * @file
 * Reproduces Figure 5.7: the effect of cache associativity on conflict
 * misses. Textures in 8x8 blocks, 128-byte lines (the worst case for
 * conflicts: few lines in the cache).
 *
 * Panel (a) Goblet-horizontal: two-way set-associativity eliminates the
 * conflicts between the two mip-map levels of a trilinear access and
 * matches fully associative - small triangles make same-level block
 * conflicts unlikely.
 * Panel (b) Town-vertical: two-way helps, but vertical rasterization
 * through upright textures leaves same-array block conflicts that even
 * higher associativity cannot remove at large sizes.
 *
 * A supplementary panel shows the nonblocked representation on Goblet,
 * where the paper notes ~8-way would be needed to match fully
 * associative at small sizes.
 *
 * Each panel hands its full associativity x size grid to
 * runCacheSweep, which collapses the fully associative row into ONE
 * stack-distance pass and drives every set-associative config from
 * ONE set pass, each sharded across the sweep pool - 2 trace passes
 * instead of 40 replays per panel.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

/** Prints one panel; returns its mean miss rate over the valid cells
 *  (an exact determinism pin for the run manifest). */
double
panel(const char *title, BenchScene s, const LayoutParams &params,
      unsigned line)
{
    std::vector<uint64_t> sizes = cacheSizeSweep(1 << 10, 128 << 10);
    TextTable table(title);
    std::vector<std::string> header = {"Assoc"};
    for (uint64_t sz : sizes)
        header.push_back(fmtBytes(sz));
    table.header(header);

    const TexelTrace &trace = store().trace(s, sceneOrder(s));
    SceneLayout layout(store().scene(s), params);

    struct AssocChoice
    {
        const char *label;
        unsigned assoc;
    };
    const AssocChoice choices[] = {
        {"direct", 1},       {"2-way", 2},
        {"4-way", 4},        {"8-way", 8},
        {"full", CacheConfig::kFullyAssoc},
    };

    // Gather the valid grid cells, sweep them in the fewest passes,
    // then scatter the stats back into rows.
    std::vector<CacheConfig> configs;
    std::vector<std::pair<size_t, size_t>> cells; // (choice, size idx)
    for (size_t c = 0; c < std::size(choices); ++c) {
        for (size_t i = 0; i < sizes.size(); ++i) {
            if (choices[c].assoc != CacheConfig::kFullyAssoc &&
                sizes[i] / line < choices[c].assoc)
                continue;
            configs.push_back({sizes[i], line, choices[c].assoc});
            cells.emplace_back(c, i);
        }
    }
    std::vector<CacheStats> stats = runCacheSweep(trace, layout, configs);

    std::vector<std::vector<std::string>> rows;
    for (const AssocChoice &c : choices) {
        std::vector<std::string> row = {c.label};
        row.insert(row.end(), sizes.size(), "-");
        rows.push_back(row);
    }
    for (size_t k = 0; k < cells.size(); ++k)
        rows[cells[k].first][cells[k].second + 1] =
            fmtPercent(stats[k].missRate());
    for (auto &row : rows)
        table.row(row);
    table.print(std::cout);
    std::cout << "\n";

    double sum = 0.0;
    for (const CacheStats &st : stats)
        sum += st.missRate();
    return stats.empty() ? 0.0 : sum / static_cast<double>(stats.size());
}

} // namespace

int
main()
{
    LayoutParams blocked = blockedForLine(256); // 8x8 blocks
    blocked.blockW = 8;
    blocked.blockH = 8;

    double mean_a =
        panel("Figure 5.7(a): Goblet-horizontal, 8x8 blocks, 128B lines",
              BenchScene::Goblet, blocked, 128);
    double mean_b =
        panel("Figure 5.7(b): Town-vertical, 8x8 blocks, 128B lines",
              BenchScene::Town, blocked, 128);

    LayoutParams nonblocked;
    nonblocked.kind = LayoutKind::Nonblocked;
    double mean_c =
        panel("Supplement (section 5.3.3): Goblet-horizontal, "
              "nonblocked, 128B lines",
              BenchScene::Goblet, nonblocked, 128);

    std::cout << "Paper reference: (a) 2-way == full for Goblet; (b) "
                 "a 2-way-vs-full gap persists for Town; nonblocked "
                 "Goblet needs ~8-way at small sizes.\n";

    dumpStats("fig_5_7", [&](RunManifest &m, stats::Group &root) {
        m.setScene("Goblet,Town");
        m.config("line_bytes", uint64_t(128));
        m.config("block", "8x8");
        root.real("panel_a_mean_miss_rate", mean_a,
                  "Goblet-horizontal blocked, mean over the grid");
        root.real("panel_b_mean_miss_rate", mean_b,
                  "Town-vertical blocked, mean over the grid");
        root.real("panel_c_mean_miss_rate", mean_c,
                  "Goblet-horizontal nonblocked, mean over the grid");
        m.metric("panel_a_mean_miss_rate", mean_a, "exact");
        m.metric("panel_b_mean_miss_rate", mean_b, "exact");
        m.metric("panel_c_mean_miss_rate", mean_c, "exact");
    });
    return 0;
}
