/**
 * @file
 * Measures the Principle of Texture Thrift (Peachey, quoted in section
 * 5.2.3): "the amount of texture information minimally required to
 * render an image of the scene is proportional to the resolution of
 * the image and is independent of the number of surfaces and the size
 * of the textures."
 *
 * The analysis scene draws a fixed-size screen at ~1 texel/pixel from
 * textures of growing size. Mip mapping makes the unique texel bytes
 * touched stay ~constant (proportional to the screen, not the
 * texture), which is what makes small texture caches viable at all.
 */

#include <unordered_set>

#include "bench/bench_util.hh"

using namespace texcache;
using namespace texcache::benchutil;

namespace {

uint64_t
uniqueTexelBytes(const TexelTrace &trace)
{
    std::unordered_set<uint64_t> uniq;
    trace.forEach([&](const TexelRecord &r) {
        uniq.insert(static_cast<uint64_t>(r.u) |
                    (static_cast<uint64_t>(r.v) << 16) |
                    (static_cast<uint64_t>(r.level) << 32) |
                    (static_cast<uint64_t>(r.texture) << 37));
    });
    return uniq.size() * kBytesPerTexel;
}

} // namespace

int
main()
{
    constexpr unsigned kScreen = 512;

    TextTable table("Section 5.2.3: Principle of Texture Thrift, "
                    "512x512 screen at ~1 texel/pixel");
    table.header({"Texture", "Storage", "Unique texels used",
                  "Used/screen pixels", "Used % of storage"});

    double screen_pixels = static_cast<double>(kScreen) * kScreen;
    for (unsigned tex : {128u, 256u, 512u, 1024u, 2048u}) {
        Scene scene = makeWorstCaseScene(tex, kScreen, 0.4f);
        RenderOptions opts;
        opts.writeFramebuffer = false;
        RenderOutput out =
            render(scene, RasterOrder::horizontal(), opts);

        uint64_t used = uniqueTexelBytes(out.trace);
        uint64_t storage = scene.textureStorageBytes();
        table.row({std::to_string(tex) + "^2", fmtBytes(storage),
                   fmtFixed(used / 1024.0, 0) + "KB",
                   fmtFixed(used / kBytesPerTexel / screen_pixels, 2),
                   fmtPercent(static_cast<double>(used) / storage,
                              1)});
    }
    table.print(std::cout);
    std::cout << "\nExpectation: unique texels used stays ~constant "
                 "(roughly proportional to screen pixels) while "
                 "texture storage grows 256x - the Principle of "
                 "Texture Thrift.\n";
    return 0;
}
