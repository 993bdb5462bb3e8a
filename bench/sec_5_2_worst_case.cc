/**
 * @file
 * Reproduces the worst-case working-set *analysis* of section 5.2.3.
 *
 * The paper bounds the first-level working set of a screen-filling
 * triangle textured at ~1 texel/pixel:
 *
 *  - texture smaller than the screen (accesses wrap): bounded by
 *    line size x diagonal of the texture image, "since this is the
 *    maximum length through the texture and the texture can appear in
 *    an arbitrary orientation on the screen";
 *  - texture larger than the screen: bounded by line size x the
 *    screen dimension along the scan direction.
 *
 * This harness renders the analysis scene across texture orientations
 * and sizes, measures the first-level working set with the stack
 * profiler, and checks it against the analytical bound. It also shows
 * the base representation's orientation sensitivity directly: a
 * 90-degree texture rotation under row-major storage is the worst
 * case the Town scene's vertical rasterization exhibits.
 */

#include <algorithm>
#include <cmath>

#include "bench/bench_util.hh"

#include "common/bits.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    constexpr unsigned kScreen = 512;
    constexpr unsigned kLine = 32;

    TextTable table("Section 5.2.3: worst-case working-set bound, "
                    "512x512 screen, nonblocked, FA, 32B lines");
    table.header({"Texture", "Angle", "Measured WS",
                  "Analytical bound", "Within"});

    for (unsigned tex : {256u, 2048u}) {
        // The paper's bound.
        uint64_t bound;
        if (tex < kScreen) {
            double diagonal = std::sqrt(2.0) * tex;
            bound = static_cast<uint64_t>(kLine * diagonal);
        } else {
            bound = static_cast<uint64_t>(kLine) * kScreen;
        }

        for (float deg : {0.0f, 15.0f, 45.0f, 90.0f}) {
            Scene scene = makeWorstCaseScene(
                tex, kScreen, deg * 3.14159265f / 180.0f);
            RenderOptions opts;
            opts.writeFramebuffer = false;
            RenderOutput out =
                render(scene, RasterOrder::horizontal(), opts);

            LayoutParams params;
            params.kind = LayoutKind::Nonblocked;
            SceneLayout layout(scene, params);
            ShardedStackProfile prof =
                profileTrace(out.trace, layout, kLine);
            // Cap the sweep below the full-texture footprint: repeated
            // textures have a *second* working-set level there (whole-
            // texture reuse across repeats) which is not the scanline-
            // level set the bound describes.
            uint64_t cap =
                std::min<uint64_t>(1 << 20,
                                   nextPowerOfTwo(static_cast<uint64_t>(
                                       tex) * tex * 4) /
                                       4);
            auto sizes = cacheSizeSweep(1 << 10, cap);
            uint64_t ws = firstWorkingSet(prof, sizes);

            uint64_t bound_pow2 = nextPowerOfTwo(bound);
            table.row({std::to_string(tex) + "^2",
                       fmtFixed(deg, 0) + " deg", fmtBytes(ws),
                       fmtBytes(bound),
                       ws <= bound_pow2 ? "yes" : "NO"});
        }
    }
    table.print(std::cout);
    std::cout << "\nPaper reference: measured first-level working "
                 "sets stay within the analytical bound at every "
                 "orientation; rotated orientations need more of the "
                 "bound than axis-aligned ones.\n";
    return 0;
}
