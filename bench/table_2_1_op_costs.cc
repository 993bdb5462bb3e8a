/**
 * @file
 * Reproduces Table 2.1: per-fragment computational costs of a fragment
 * generator, plus the representation-dependent texel addressing costs
 * the table defers to section 5.
 *
 * The fixed-function rows are the paper's unoptimized operation counts
 * for the pipeline stages we implement (they are properties of the
 * algorithms, not of a particular machine). The addressing rows come
 * from the implemented layouts' AddressingCost models, and a dynamic
 * measurement cross-checks the texture-lookup count per fragment on a
 * rendered scene.
 */

#include "bench/bench_util.hh"
#include "layout/layout.hh"

using namespace texcache;
using namespace texcache::benchutil;

int
main()
{
    TextTable fixed("Table 2.1: fragment generator computation costs "
                    "(per fragment unless noted)");
    fixed.header({"Phase", "Add/Sub", "Multiply", "Divide",
                  "TexAccesses"});
    fixed.row({"Per-triangle setup", "89", "64", "1", "-"});
    fixed.row({"Rasterization + shading", "11", "1", "-", "-"});
    fixed.row({"Level-of-detail (d)", "9", "9", "-", "-"});
    fixed.row({"Texel coords nearest (u,v,d)", "5+14", "5", "-", "-"});
    fixed.row({"Trilinear interpolation", "56", "28", "-", "8"});
    fixed.row({"Bilinear interpolation", "24", "12", "-", "4"});
    fixed.row({"Modulate fragment color", "8", "4", "-", "-"});
    fixed.print(std::cout);

    std::cout << "\n";

    TextTable addr("Texel address calculation per representation "
                   "(sections 5.2.1, 5.3.1, 6.2; per texel)");
    addr.header({"Representation", "Adds", "VarShifts", "ConstShifts",
                 "Masks", "MemAccesses/texel"});
    std::vector<LevelDims> dims;
    for (unsigned w = 64; w >= 1; w /= 2)
        dims.push_back({w, w});
    AddressSpace space;
    for (LayoutKind kind :
         {LayoutKind::Williams, LayoutKind::Nonblocked, LayoutKind::Blocked,
          LayoutKind::PaddedBlocked, LayoutKind::Blocked6D}) {
        LayoutParams p; // 4x4 blocks, 4 pad blocks, 32 KB super-blocks
        p.kind = kind;
        TextureLayout l(p, dims, space);
        AddressingCost c = l.cost();
        addr.row({l.name(), std::to_string(c.adds),
                  std::to_string(c.shifts),
                  std::to_string(c.constShifts),
                  std::to_string(c.ands),
                  std::to_string(c.accessesPerTexel)});
    }
    addr.print(std::cout);

    // Dynamic cross-check on a real render: texel accesses/fragment.
    const RenderOutput &out = store().output(
        BenchScene::Goblet, sceneOrder(BenchScene::Goblet));
    double per_frag = static_cast<double>(out.stats.texelAccesses) /
                      out.stats.fragments;
    std::cout << "\nMeasured texture accesses per fragment (Goblet): "
              << fmtFixed(per_frag, 2)
              << " (8 for trilinear, 4 for bilinear fragments)\n";
    return 0;
}
