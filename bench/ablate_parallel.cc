/**
 * @file
 * Ablation for the paper's parallel-architecture question (section 8):
 * multiple fragment generators sharing one texture memory, each with a
 * private cache - "how to balance the work among multiple fragment
 * generators without reducing the spatial locality in each reference
 * stream."
 *
 * Fragments of each benchmark frame are distributed across N
 * generators under three screen-space policies. Reported: aggregate
 * miss rate (= total memory traffic of the shared DRAM) and load
 * imbalance (max/mean texel accesses). Fine interleaving balances work
 * but replicates the working set into every cache; coarse bands keep
 * locality but can skew load.
 */

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "core/parallel.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

ParallelStats
run(BenchScene s, unsigned n_gen, WorkDistribution dist,
    const SceneLayout &layout, const CacheConfig &cache)
{
    const Scene &scene = store().scene(s);
    MultiGeneratorSim sim(n_gen, dist, cache, /*tile=*/32,
                          scene.screenH);
    RenderOptions opts;
    opts.captureTrace = false;
    opts.writeFramebuffer = false;
    opts.onFragment = [&](const Fragment &f, const SampleResult &sr,
                          uint16_t tex) {
        Addr addrs[24];
        unsigned n = 0;
        for (unsigned i = 0; i < sr.numTouches; ++i) {
            Addr out[3];
            unsigned k = layout.layout(tex).addresses(
                {sr.touches[i].level, sr.touches[i].u, sr.touches[i].v},
                out);
            for (unsigned j = 0; j < k; ++j)
                addrs[n++] = out[j];
        }
        sim.addFragment(f.x, f.y, addrs, n);
    };
    render(scene, sceneOrder(s, /*tiled=*/true, 8), opts);
    return sim.finish();
}

} // namespace

int
main()
{
    const CacheConfig cache{32 * 1024, 128, 2};
    LayoutParams params;
    params.kind = LayoutKind::PaddedBlocked;
    params.blockW = params.blockH = 8;

    TextTable table("Section 8 extension: N fragment generators, "
                    "32KB/128B/2way private caches; aggregate miss "
                    "rate (load imbalance)");
    table.header({"Scene", "Policy", "N=1", "N=2", "N=4", "N=8"});

    for (BenchScene s : {BenchScene::Town, BenchScene::Flight}) {
        SceneLayout layout(store().scene(s), params);
        for (WorkDistribution dist :
             {WorkDistribution::ScanlineInterleaved,
              WorkDistribution::TileInterleaved,
              WorkDistribution::Bands}) {
            std::vector<std::string> row = {benchSceneName(s),
                                            workDistributionName(dist)};
            for (unsigned n : {1u, 2u, 4u, 8u}) {
                ParallelStats stats = run(s, n, dist, layout, cache);
                row.push_back(
                    fmtPercent(stats.aggregateMissRate()) + " (" +
                    fmtFixed(stats.loadImbalance(), 2) + ")");
            }
            table.row(row);
        }
    }
    table.print(std::cout);
    std::cout << "\nExpectation: scanline interleaving balances load "
                 "(~1.0) but multiplies misses; bands preserve "
                 "locality at the cost of imbalance; tile "
                 "interleaving sits between.\n\n";

    // Second panel: a shared L2 between the private L1s and memory.
    // Texture data is read-only (no coherence needed, section 8), so
    // a shared level can absorb the cross-generator re-fetches that
    // fine-grained distribution causes.
    TextTable l2table(
        "Shared 256KB 4-way L2 under the private L1s: memory fills "
        "per 1000 texel accesses");
    l2table.header({"Scene", "N", "no L2 (L1 misses)",
                    "with shared L2", "L2 filters"});

    const CacheConfig l1{32 * 1024, 128, 2};
    const CacheConfig l2{256 * 1024, 128, 4};
    for (BenchScene s : {BenchScene::Town, BenchScene::Flight}) {
        SceneLayout layout(store().scene(s), params);
        const Scene &scene = store().scene(s);
        for (unsigned n : {1u, 4u, 8u}) {
            TwoLevelCache hier(n,
                               l1, l2);
            MultiGeneratorSim router(
                n, WorkDistribution::ScanlineInterleaved, l1, 32,
                scene.screenH);
            RenderOptions opts;
            opts.captureTrace = false;
            opts.writeFramebuffer = false;
            opts.onFragment = [&](const Fragment &f,
                                  const SampleResult &sr,
                                  uint16_t tex) {
                unsigned g = router.generatorFor(f.x, f.y);
                for (unsigned i = 0; i < sr.numTouches; ++i) {
                    Addr out[3];
                    unsigned k = layout.layout(tex).addresses(
                        {sr.touches[i].level, sr.touches[i].u,
                         sr.touches[i].v},
                        out);
                    for (unsigned j = 0; j < k; ++j)
                        hier.access(g, out[j]);
                }
            };
            render(scene, sceneOrder(s, /*tiled=*/true, 8), opts);

            uint64_t l1_misses = 0;
            for (unsigned g = 0; g < n; ++g)
                l1_misses += hier.l1Stats(g).misses;
            double per_k = 1000.0 / hier.totalAccesses();
            l2table.row(
                {benchSceneName(s), std::to_string(n),
                 fmtFixed(l1_misses * per_k, 2),
                 fmtFixed(hier.memoryFills() * per_k, 2),
                 fmtFixed(l1_misses
                              ? 1.0 - static_cast<double>(
                                          hier.memoryFills()) /
                                          l1_misses
                              : 0.0,
                          2)});
        }
    }
    l2table.print(std::cout);
    std::cout << "\nExpectation: the shared L2 absorbs most of the "
                 "extra misses fine interleaving causes, restoring "
                 "near-N=1 memory traffic.\n";
    return 0;
}
