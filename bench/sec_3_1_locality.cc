/**
 * @file
 * Reproduces the locality measurements of sections 3.1.2 and 5.2.3:
 *
 *  - accesses per texel for trilinear-lower / trilinear-upper /
 *    bilinear filtering (paper: ~4 / ~14 / ~18 averaged over scenes;
 *    the expectation is 4 and 16 for the two trilinear levels);
 *  - texture repetition factors (paper: Town 2.9, Guitar 1.7,
 *    Goblet 1.1, Flight 1.0);
 *  - average texture runlengths (paper: Town 223,629; Guitar 553,745;
 *    Flight 562,154 - demonstrating the working set holds one texture
 *    at a time).
 */

#include "bench/bench_util.hh"
#include "trace/trace_stats.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    TextTable table("Sections 3.1.2 / 5.2.3: locality of reference");
    table.header({"Scene", "Acc/texel lower", "Acc/texel upper",
                  "Acc/texel bilinear", "Repetition", "Runlength",
                  "Runs"});

    for (BenchScene s : allBenchScenes()) {
        // Repetition is counted only on request, by the reference
        // renderer, so this table takes its trace from the same render
        // rather than from the store.
        RasterOrder order = sceneOrder(s);
        RenderOptions opts;
        opts.writeFramebuffer = false;
        opts.countRepetition = true;
        inform("rendering ", benchSceneName(s), " (", order.str(),
               ") with repetition counting");
        RenderOutput out = render(store().scene(s), order, opts);
        TraceStats stats = analyzeTrace(out.trace);

        table.row({benchSceneName(s),
                   fmtFixed(stats.trilinearLower.accessesPerTexel(), 1),
                   fmtFixed(stats.trilinearUpper.accessesPerTexel(), 1),
                   stats.bilinear.accesses
                       ? fmtFixed(stats.bilinear.accessesPerTexel(), 1)
                       : std::string("-"),
                   fmtFixed(out.repetition.repetitionFactor(), 2),
                   fmtFixed(stats.averageRunlength(), 0),
                   std::to_string(stats.textureRuns)});
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: accesses/texel lower ~4, upper "
                 "~14-16; repetition Town 2.9, Guitar 1.7, Goblet 1.1, "
                 "Flight 1.0; runlengths in the hundreds of thousands.\n";
    return 0;
}
