/**
 * @file
 * Extension: virtual texturing residency ablation (src/vt/).
 *
 * The paper assumes every texture is fully resident in DRAM. This
 * ablation drops that assumption: each scene renders with only a
 * bounded physical page pool resident, misses fetched asynchronously
 * and sampling degrading to the finest resident ancestor mip level
 * meanwhile. The sweep crosses pool budget x page size, cold-started
 * (nothing resident but the pinned coarsest levels); the "warm" row
 * prefaults the whole footprint and must show zero degradation -
 * the subsystem is bit-neutral when memory suffices.
 *
 * The second table puts the paper's cache hierarchy in front of the
 * pool: an L1/L2 filters the baseline texel stream and only true
 * memory fills probe page residency.
 *
 * Every sweep point owns its full VT stack (pool, fetch queue,
 * sampler) and re-renders from the prebuilt read-only scene, so the
 * 28 cold/warm points and the 4 front-cache replays all execute on
 * the sweep thread pool; rows print in deterministic point order.
 */

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "cache/stats_export.hh"
#include "vt/vt_memory.hh"
#include "vt/vt_sampler.hh"
#include "vt/vt_stats.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

VtConfig
vtConfig(const Scene &scene, unsigned page_bytes, uint64_t pool_bytes)
{
    VtConfig cfg;
    cfg.pageBytes = page_bytes;
    cfg.poolPages = pool_bytes / page_bytes;
    // The pool must at least hold every texture's pinned fallback
    // level plus in-flight fills; scenes with many textures (Town: 51)
    // push the floor above the smallest budgets.
    uint64_t floor = scene.textures.size() + cfg.maxInFlight;
    if (cfg.poolPages < floor)
        cfg.poolPages = floor;
    return cfg;
}

/** One cold- or warm-started VT render of @p scene; returns the row. */
std::vector<std::string>
runVt(const Scene &scene, const SceneLayout &layout,
      const RasterOrder &order, const VtConfig &cfg, bool warm)
{
    VirtualTextureMemory mem(cfg);
    VtSampler vt(layout, mem);
    if (warm)
        vt.prefaultAll();

    RenderOptions opts;
    opts.captureTrace = false;
    opts.writeFramebuffer = false;
    opts.vtResolve = vt.hook();
    render(scene, order, opts);

    const DegradationStats &deg = vt.degradation();
    const FetchQueueStats &fq = mem.fetchQueue().stats();
    const PagePoolStats &pool = mem.pool().stats();
    return {scene.name, fmtBytes(cfg.pageBytes),
            warm ? "warm" : fmtBytes(cfg.poolBytes()),
            fmtPercent(deg.degradedFraction()),
            fmtFixed(deg.avgDelta(), 2),
            std::to_string(deg.maxDelta()),
            std::to_string(fq.issued), std::to_string(fq.dedupHits),
            std::to_string(fq.drops),
            std::to_string(pool.evictions),
            fmtPercent(pool.hitRate()),
            std::to_string(pool.residentHighWater)};
}

} // namespace

int
main()
{
    TextTable sweep(
        "Ablation: virtual texturing, pool budget x page size (cold "
        "start; warm row prefaults the full footprint)");
    sweep.header({"Scene", "Page", "Pool", "Degraded", "AvgDelta",
                  "MaxDelta", "Fetches", "Dedup", "Drops", "Evict",
                  "PoolHit", "ResidentHW"});

    const unsigned page_sizes[] = {16 * 1024, 64 * 1024};
    const uint64_t pool_budgets[] = {1 << 20, 4 << 20, 16 << 20};

    // Serial phase: build scenes and one shared read-only layout per
    // scene, then enumerate every (scene, page, budget) render as an
    // independent sweep point (warm rows included, in row order).
    struct Point
    {
        const Scene *scene;
        std::shared_ptr<SceneLayout> layout;
        RasterOrder order;
        VtConfig cfg;
        bool warm;
    };
    std::vector<Point> points;
    for (BenchScene s : allBenchScenes()) {
        const Scene &scene = store().scene(s);
        auto layout =
            std::make_shared<SceneLayout>(scene, blockedForLine(64));
        RasterOrder order = sceneOrder(s);
        for (unsigned page : page_sizes)
            for (uint64_t budget : pool_budgets)
                points.push_back({&scene, layout, order,
                                  vtConfig(scene, page, budget), false});
        // Warm start sized to the whole footprint: must not degrade.
        VtConfig cfg = vtConfig(scene, 64 * 1024, 0);
        cfg.poolPages = layout->totalFootprint() / cfg.pageBytes + 2;
        points.push_back({&scene, layout, order, cfg, true});
    }

    auto rows = Sweep::run(points, [](const Point &p) {
        return runVt(*p.scene, *p.layout, p.order, p.cfg, p.warm);
    });
    for (const auto &r : rows)
        sweep.row(r.value);
    sweep.print(std::cout);
    std::cout << "\n";

    // The cache hierarchy in front of the pool: replay the baseline
    // trace through a private L1 + shared L2 and let only the memory
    // fills probe residency.
    TextTable front(
        "L1/L2 in front of the VT pool (baseline trace replay, 64KB "
        "pages, 4MB pool)");
    front.header({"Scene", "Accesses", "MemFills", "PoolLookups",
                  "PoolHit", "Fetches"});

    struct FrontPoint
    {
        const Scene *scene;
        std::shared_ptr<SceneLayout> layout;
        const TexelTrace *trace;
    };
    std::vector<FrontPoint> fronts;
    for (BenchScene s : allBenchScenes()) {
        const Scene &scene = store().scene(s);
        fronts.push_back({&scene,
                          std::make_shared<SceneLayout>(
                              scene, blockedForLine(64)),
                          &store().trace(s, sceneOrder(s))});
    }

    auto frontRows = Sweep::run(fronts, [&](const FrontPoint &p) {
        VirtualTextureMemory mem(
            vtConfig(*p.scene, 64 * 1024, 4 << 20));
        TwoLevelCache h(1, CacheConfig{16 * 1024, 64, 2},
                        CacheConfig{128 * 1024, 64, 4});
        h.setMemoryBackend([&](Addr a) { mem.touch(a); });
        // Cache hits never reach the pool, but they still take time:
        // advance the VT clock once per texel access so in-flight
        // fetches retire while the hierarchy absorbs the traffic.
        p.layout->forEachAddress(*p.trace, [&](Addr a) {
            mem.advance(1);
            h.access(0, a);
        });
        const PagePoolStats &pool = mem.pool().stats();
        return std::vector<std::string>{
            p.scene->name, std::to_string(h.totalAccesses()),
            std::to_string(h.memoryFills()),
            std::to_string(pool.lookups),
            fmtPercent(pool.hitRate()),
            std::to_string(mem.fetchQueue().stats().issued)};
    });
    for (const auto &r : frontRows)
        front.row(r.value);
    front.print(std::cout);

    // One canonical cold point re-run with its stacks kept alive in
    // this scope, so the run manifest can dump the *full* VT and cache
    // hierarchy stats trees that the table rows above only summarize.
    BenchScene repScene = allBenchScenes().front();
    const FrontPoint &rep = fronts.front();
    VirtualTextureMemory repMem(vtConfig(*rep.scene, 64 * 1024,
                                         4 << 20));
    VtSampler repVt(*rep.layout, repMem);
    {
        RenderOptions opts;
        opts.captureTrace = false;
        opts.writeFramebuffer = false;
        opts.vtResolve = repVt.hook();
        render(*rep.scene, sceneOrder(repScene), opts);
    }
    TwoLevelCache repHier(1, CacheConfig{16 * 1024, 64, 2},
                          CacheConfig{128 * 1024, 64, 4});
    rep.layout->forEachAddress(*rep.trace,
                               [&](Addr a) { repHier.access(0, a); });

    dumpStats("ablate_vt_residency", [&](RunManifest &m,
                                         stats::Group &root) {
        m.setScene("all");
        m.config("rep_scene", std::string(benchSceneName(repScene)));
        m.config("rep_page_bytes", uint64_t(64 * 1024));
        m.config("rep_pool_bytes", uint64_t(4) << 20);
        exportPointTimes(*root.findGroup("sweep"), rows);
        exportVtStats(root.group("vt"), repMem, &repVt.degradation());
        exportHierarchyStats(root.group("cache"), repHier);
        // The VT stack is cycle-driven and single-threaded per point:
        // everything below is deterministic, so pin it exactly.
        m.metric("rep_degraded_fraction",
                 repVt.degradation().degradedFraction(), "exact");
        m.metric("rep_pool_hit_rate", repMem.pool().stats().hitRate(),
                 "exact");
        m.metric("rep_l1_miss_rate", root.value("cache.l1.miss_rate"),
                 "exact");
    });
    return 0;
}
