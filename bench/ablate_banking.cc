/**
 * @file
 * Ablation for section 7.1.2: multi-bank cache port interleaving.
 *
 * A trilinear fragment reads two 2x2 quads per cycle pair; the cache is
 * interleaved across four banks at texel granularity. The paper's
 * claim: a morton (2x2-interleaved) intra-line texel order serves any
 * quad conflict-free, while a row-major order serializes bank
 * conflicts. This harness replays each benchmark's quads through both
 * interleavings and reports cycles per quad.
 */

#include "bench/bench_util.hh"
#include "cache/bank_model.hh"
#include "trace/fragment_iter.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    TextTable table("Section 7.1.2: 4-bank interleaving, cycles per "
                    "2x2 quad (1.0 = conflict-free)");
    table.header({"Scene", "Morton", "RowMajor", "RowMajor conflict "
                                                 "cycles"});

    for (BenchScene s : allBenchScenes()) {
        const TexelTrace &trace = store().trace(s, sceneOrder(s));
        BankModel morton(BankInterleave::Morton);
        BankModel rowmajor(BankInterleave::RowMajor,
                           /*row_width_texels=*/8);
        forEachFragment(trace, [&](const FragmentTouches &f) {
            // Each filter level's 4 touches form one quad access.
            for (unsigned base = 0; base + 4 <= f.count; base += 4) {
                TexelTouch quad[4];
                for (unsigned i = 0; i < 4; ++i) {
                    const TexelRecord &r = f.recs[base + i];
                    quad[i] = {r.level, r.u, r.v};
                }
                morton.accessQuad(quad);
                rowmajor.accessQuad(quad);
            }
        });
        table.row({benchSceneName(s),
                   fmtFixed(morton.cyclesPerQuad(), 3),
                   fmtFixed(rowmajor.cyclesPerQuad(), 3),
                   std::to_string(rowmajor.conflictCycles())});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference: morton order is conflict-free "
                 "(exactly 1.0 cycles/quad) for all scenes.\n";
    return 0;
}
