/**
 * @file
 * Render one benchmark frame with full spatial miss diagnostics.
 *
 * This is the tracing layer's end-to-end driver: it renders a paper
 * scene and replays every texel touch through a 3-C miss classifier
 * *while the screen and texture coordinates are still known*, so that
 * - with TEXCACHE_TRACE=misses (or all) - each recorded miss event
 * carries its screen pixel, texture id, mip level and (u, v). The
 * resulting TRACE_traced_frame.events.bin feeds tools/texcache-report,
 * which folds the events into screen-space and texture-space heatmaps.
 *
 * Stdout is a deterministic summary (same bytes with tracing on or
 * off); the manifest and trace files go wherever TEXCACHE_STATS_DIR
 * points.
 *
 * Usage:
 *   traced_frame [scene] [cache_kb] [line_bytes]
 *     scene      flight | town | guitar | goblet | quad  (default quad)
 *     cache_kb   set-associative cache size in KB        (default 16)
 *     line_bytes cache line size in bytes                (default 64)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cache/three_c.hh"
#include "core/run_manifest.hh"
#include "core/scene_layout.hh"
#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"
#include "stats/stats.hh"
#include "tracing/tracing.hh"

using namespace texcache;

namespace {

[[noreturn]] void
usage()
{
    std::cerr << "usage: traced_frame [scene] [cache_kb] [line_bytes]\n"
                 "scenes: flight town guitar goblet quad\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scene_name = argc > 1 ? argv[1] : "quad";
    unsigned cache_kb = argc > 2 ? std::atoi(argv[2]) : 16;
    unsigned line_bytes = argc > 3 ? std::atoi(argv[3]) : 64;
    if (argc > 4 || cache_kb == 0 || line_bytes == 0)
        usage();

    Scene scene;
    RasterOrder order;
    if (scene_name == "quad") {
        scene = makeQuadTestScene(256, 256, 1.0f);
    } else {
        BenchScene bs;
        if (scene_name == "flight")
            bs = BenchScene::Flight;
        else if (scene_name == "town")
            bs = BenchScene::Town;
        else if (scene_name == "guitar")
            bs = BenchScene::Guitar;
        else if (scene_name == "goblet")
            bs = BenchScene::Goblet;
        else
            usage();
        scene = makeScene(bs);
        order.dir = paperScanDirection(bs);
    }

    SceneLayout layout(scene, blockedForLine(line_bytes));
    CacheConfig cfg{cache_kb * 1024, line_bytes, 2};
    MissClassifier classifier(cfg);

    // Replay texel touches in-line with rendering: publish the
    // fragment's screen position and the touch's texture coordinates
    // so miss events record where on screen and where in the texture
    // the miss happened.
    RenderOptions opts;
    opts.captureTrace = false;
    opts.writeFramebuffer = false;
    opts.onFragment = [&](const Fragment &frag, const SampleResult &s,
                          uint16_t texture) {
        Addr out[3];
        for (unsigned i = 0; i < s.numTouches; ++i) {
            const TexelTouch &t = s.touches[i];
            tracing::setTexelContext(
                static_cast<uint32_t>(frag.x),
                static_cast<uint32_t>(frag.y), texture, t.level, t.u,
                t.v);
            unsigned n = layout.layout(texture).addresses(t, out);
            for (unsigned k = 0; k < n; ++k)
                classifier.access(out[k]);
        }
    };

    RenderOutput frame = render(scene, order, opts);
    tracing::clearTexelContext();

    MissBreakdown b = classifier.breakdown();
    std::printf("scene            %s\n", scene.name.c_str());
    std::printf("screen           %ux%u\n", scene.screenW,
                scene.screenH);
    std::printf("cache            %u KB, %u B lines, 2-way\n", cache_kb,
                line_bytes);
    std::printf("fragments        %llu\n",
                (unsigned long long)frame.stats.fragments);
    std::printf("texel accesses   %llu\n",
                (unsigned long long)frame.stats.texelAccesses);
    std::printf("cache accesses   %llu\n",
                (unsigned long long)b.accesses);
    std::printf("misses           %llu (%.4f%%)\n",
                (unsigned long long)b.misses, 100.0 * b.missRate());
    std::printf("  cold           %llu\n", (unsigned long long)b.cold);
    std::printf("  capacity       %llu\n",
                (unsigned long long)b.capacity);
    std::printf("  conflict       %llu\n",
                (unsigned long long)b.conflict);

    RunManifest manifest("traced_frame");
    manifest.setScene(scene.name);
    manifest.config("scene", scene_name);
    manifest.config("cache_kb", static_cast<uint64_t>(cache_kb));
    manifest.config("line_bytes", static_cast<uint64_t>(line_bytes));
    manifest.metric("fragments",
                    static_cast<double>(frame.stats.fragments),
                    "exact");
    manifest.metric("texel_accesses",
                    static_cast<double>(frame.stats.texelAccesses),
                    "exact");
    manifest.metric("miss_rate", b.missRate(), "report");

    stats::Group root;
    stats::Group &cg = root.group("cache");
    cg.constant("accesses", b.accesses, "classified cache accesses");
    cg.constant("misses", b.misses, "set-associative misses");
    cg.constant("cold", b.cold, "cold misses");
    cg.constant("capacity", b.capacity, "capacity misses");
    cg.constant("conflict", b.conflict, "conflict misses");

    if (tracing::active()) {
        tracing::DumpInfo t = tracing::dumpToFiles("traced_frame");
        manifest.setTrace({t.chromePath, t.eventsPath, t.recorded,
                           t.dropped, t.sampleN});
    }
    manifest.writeFile(&root);
    return 0;
}
