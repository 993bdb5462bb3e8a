/**
 * @file
 * Ablation for the paper's inter-frame locality remark (section
 * 3.1.2): "We generally do not expect our caches to exploit temporal
 * locality between consecutive frames because the cache sizes that we
 * consider are much smaller than the amount of texture data that is
 * typically used by a single frame. Between memory and disk, however,
 * this kind of temporal locality is of interest."
 *
 * Two consecutive Flight frames (the camera advances ~60 world units)
 * are rendered and their traces concatenated. For each memory size,
 * the table shows frame 2's miss rate given a store warmed by frame 1,
 * versus frame 2 run cold. Cache-sized stores (<= 128 KB) gain
 * nothing; texture-sized stores (MBs) make frame 2 nearly free - the
 * memory-vs-disk regime the paper points to.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    inform("building two Flight frames");
    Scene frame1 = makeFlightSceneAt(0.0f);
    Scene frame2 = makeFlightSceneAt(1.0f);

    RenderOptions opts;
    opts.writeFramebuffer = false;
    RasterOrder order = RasterOrder::tiledOrder(8, 8);
    RenderOutput out1 = render(frame1, order, opts);
    RenderOutput out2 = render(frame2, order, opts);

    LayoutParams params;
    params.kind = LayoutKind::PaddedBlocked;
    params.blockW = params.blockH = 8;
    // Both frames share the same textures, so either scene's layout
    // describes the address space (textures are placed identically).
    SceneLayout layout(frame1, params);

    constexpr unsigned kLine = 128;

    TextTable table("Section 3.1.2: inter-frame temporal locality, "
                    "Flight frames t and t+1, FA LRU, 128B lines");
    table.header({"Store size", "Frame2 cold", "Frame2 after frame1",
                  "Inter-frame benefit"});

    for (uint64_t size :
         {32ull << 10, 128ull << 10, 512ull << 10, 2ull << 20,
          8ull << 20, 32ull << 20}) {
        // Cold: frame 2 alone.
        FullyAssocLru cold(size, kLine);
        layout.forEachAddress(out2.trace,
                              [&](Addr a) { cold.access(a); });
        double cold_rate = cold.stats().missRate();

        // Warm: frame 1 then frame 2; report frame 2's portion.
        FullyAssocLru warm(size, kLine);
        layout.forEachAddress(out1.trace,
                              [&](Addr a) { warm.access(a); });
        uint64_t misses_before = warm.stats().misses;
        uint64_t accesses_before = warm.stats().accesses;
        layout.forEachAddress(out2.trace,
                              [&](Addr a) { warm.access(a); });
        double warm_rate =
            static_cast<double>(warm.stats().misses - misses_before) /
            static_cast<double>(warm.stats().accesses -
                                accesses_before);

        table.row({fmtBytes(size), fmtPercent(cold_rate),
                   fmtPercent(warm_rate),
                   fmtFixed(warm_rate > 0 ? cold_rate / warm_rate
                                          : 0.0,
                            1) +
                       "x"});
    }
    table.print(std::cout);
    std::cout << "\nExpectation: no benefit at cache-like sizes "
                 "(working sets are per-frame); large benefit once the "
                 "store holds a frame's full texture footprint.\n";
    return 0;
}
