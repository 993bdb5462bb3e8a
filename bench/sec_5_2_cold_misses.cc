/**
 * @file
 * Reproduces the cold-miss measurements of section 5.2.2: the
 * asymptotic (large-cache) miss rates of the base representation at 32
 * and 128 byte lines.
 *
 * Paper values: 32 B lines -> Town 0.55%, Guitar 0.87%, Goblet 1.5%,
 * Flight 2.8%; 128 B lines -> 0.15%, 0.25%, 0.42%, 1.1%. The ordering
 * (Flight worst, Town best) follows texture repetition and
 * level-of-detail fragmentation; larger lines cut cold misses ~4x,
 * showing strong spatial locality.
 */

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    TextTable table("Section 5.2.2: cold miss rates of the base "
                    "representation (fully associative)");
    table.header({"Scene", "ColdMiss 32B line", "ColdMiss 128B line",
                  "Reduction"});

    for (BenchScene s : allBenchScenes()) {
        const TexelTrace &trace = store().trace(s, sceneOrder(s));
        LayoutParams params;
        params.kind = LayoutKind::Nonblocked;
        SceneLayout layout(store().scene(s), params);

        // Cold misses are first touches; rate = cold / accesses.
        ShardedStackProfile p32 = profileTrace(trace, layout, 32);
        ShardedStackProfile p128 = profileTrace(trace, layout, 128);
        double r32 = static_cast<double>(p32.coldMisses()) /
                     p32.accesses;
        double r128 = static_cast<double>(p128.coldMisses()) /
                      p128.accesses;
        table.row({benchSceneName(s), fmtPercent(r32),
                   fmtPercent(r128),
                   fmtFixed(r32 / r128, 1) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference @32B: Town 0.55%, Guitar 0.87%, "
                 "Goblet 1.5%, Flight 2.8%; @128B: 0.15%, 0.25%, "
                 "0.42%, 1.1%.\n";
    return 0;
}
