/**
 * @file
 * Animated flyover: renders consecutive frames of the Flight
 * benchmark's camera path through one *persistent* texture cache,
 * reporting per-frame miss rate and memory bandwidth.
 *
 * This is the steady-state view a real system sees: after the first
 * frame's cold start, the per-frame miss rate is what the memory
 * system must sustain. Compare a cache-sized store (intra-frame
 * locality only) against a texture-memory-sized store (inter-frame
 * locality too; see bench/ablate_interframe).
 *
 * Usage: flyover [num_frames]
 */

#include <cstdlib>
#include <iostream>

#include "cache/bandwidth.hh"
#include "cache/cache_sim.hh"
#include "common/table.hh"
#include "core/scene_layout.hh"
#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"

using namespace texcache;

int
main(int argc, char **argv)
{
    unsigned frames = argc > 1
                          ? static_cast<unsigned>(std::atoi(argv[1]))
                          : 5;
    fatal_if(frames == 0, "need at least one frame");

    std::cerr << "building Flight...\n";
    Scene frame0 = makeFlightSceneAt(0.0f);

    LayoutParams params;
    params.kind = LayoutKind::PaddedBlocked;
    params.blockW = params.blockH = 8;
    SceneLayout layout(frame0, params);

    constexpr unsigned kLine = 128;
    CacheSim cache({32 * 1024, kLine, 2});
    FullyAssocLru big(32 << 20, kLine); // texture-memory-sized store
    MachineModel machine;

    TextTable table("Flight flyover: persistent 32KB cache vs 32MB "
                    "store, per frame");
    table.header({"Frame", "Fragments", "32KB miss", "32KB BW (MB/s)",
                  "32MB miss"});

    for (unsigned f = 0; f < frames; ++f) {
        Scene scene = makeFlightSceneAt(static_cast<float>(f));
        RenderOptions opts;
        opts.writeFramebuffer = false;
        RenderOutput out =
            render(scene, RasterOrder::tiledOrder(8, 8), opts);

        uint64_t m0 = cache.stats().misses;
        uint64_t a0 = cache.stats().accesses;
        uint64_t bm0 = big.stats().misses;
        layout.forEachAddress(out.trace, [&](Addr a) {
            cache.access(a);
            big.access(a);
        });
        uint64_t accesses = cache.stats().accesses - a0;
        double miss = static_cast<double>(cache.stats().misses - m0) /
                      accesses;
        double big_miss =
            static_cast<double>(big.stats().misses - bm0) / accesses;

        table.row({std::to_string(f),
                   std::to_string(out.stats.fragments),
                   fmtPercent(miss),
                   fmtFixed(machine.cachedBandwidth(miss, kLine) / 1e6,
                            0),
                   fmtPercent(big_miss)});
    }
    table.print(std::cout);
    std::cout << "\nThe 32KB cache's per-frame miss rate is steady "
                 "(intra-frame working sets only); the 32MB store's "
                 "drops sharply after frame 0 (inter-frame reuse).\n";
    return 0;
}
