#include "pipeline/renderer.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "pipeline/clip.hh"
#include "pipeline/tile_render.hh"
#include "pipeline/viewport.hh"
#include "tracing/tracing.hh"

namespace texcache {

ScreenVertex
toScreenVertex(const ClipVertex &cv, unsigned screen_w, unsigned screen_h)
{
    Vec3 ndc = cv.pos.project();
    ScreenVertex sv;
    sv.x = (ndc.x * 0.5f + 0.5f) * static_cast<float>(screen_w);
    sv.y = (0.5f - ndc.y * 0.5f) * static_cast<float>(screen_h);
    sv.z = ndc.z * 0.5f + 0.5f;
    sv.invW = 1.0f / cv.pos.w;
    sv.uOverW = cv.uv.x * sv.invW;
    sv.vOverW = cv.uv.y * sv.invW;
    sv.shade = cv.shade;
    return sv;
}

namespace {

inline uint8_t
modulate(uint8_t c, float s)
{
    float v = static_cast<float>(c) * s;
    v = v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v);
    return static_cast<uint8_t>(v + 0.5f);
}

} // namespace

RenderOutput
render(const Scene &scene, const RasterOrder &order,
       const RenderOptions &opts)
{
    return referenceOnlyOption(opts) ? renderReference(scene, order, opts)
                                     : renderTiled(scene, order, opts);
}

RenderOutput
renderReference(const Scene &scene, const RasterOrder &order,
                const RenderOptions &opts)
{
    static const uint16_t kRenderSpan =
        tracing::nameId("render.frame");
    tracing::ScopedSpan span(kRenderSpan, scene.triangles.size());

    RenderOutput out;
    RepetitionCounter repetition;
    if (opts.writeFramebuffer)
        out.framebuffer = Image(scene.screenW, scene.screenH,
                                Rgba8{16, 16, 32, 255});
    std::vector<float> zbuf(
        static_cast<size_t>(scene.screenW) * scene.screenH, 1e30f);

    Mat4 mvp = scene.proj * scene.view;

    // Rough reservation: most fragments are trilinear (8 touches).
    if (opts.captureTrace && !opts.traceSink)
        out.trace.reserve(static_cast<size_t>(scene.screenW) *
                          scene.screenH * 8);

    for (const SceneTriangle &tri : scene.triangles) {
        ++out.stats.trianglesIn;
        fatal_if(tri.texture >= scene.textures.size(),
                 "triangle references texture ", tri.texture, " of ",
                 scene.textures.size());
        const MipMap &mip = scene.textures[tri.texture];
        float tex_w = static_cast<float>(mip.width(0));
        float tex_h = static_cast<float>(mip.height(0));

        ClipVertex cv[3];
        for (int i = 0; i < 3; ++i) {
            cv[i].pos = mvp.transformPoint(tri.v[i].pos);
            cv[i].uv = tri.v[i].uv;
            cv[i].shade = tri.v[i].shade;
        }

        ClipVertex poly[4];
        unsigned n = clipNear(cv, poly);
        if (n < 3) {
            ++out.stats.trianglesculled;
            continue;
        }

        uint64_t covered_before = out.stats.fragments;

        // Fan-triangulate the clipped polygon.
        for (unsigned k = 2; k < n; ++k) {
            ScreenVertex a = toScreenVertex(poly[0], scene.screenW,
                                      scene.screenH);
            ScreenVertex b = toScreenVertex(poly[k - 1], scene.screenW,
                                      scene.screenH);
            ScreenVertex c = toScreenVertex(poly[k], scene.screenW,
                                      scene.screenH);
            TriangleSetup setup(a, b, c);
            if (!setup.valid())
                continue;
            ++out.stats.trianglesRasterized;

            PixelRect box = setup.bounds(scene.screenW, scene.screenH);
            if (!box.empty()) {
                out.stats.sumBoxWidth += box.x1 - box.x0 + 1;
                out.stats.sumBoxHeight += box.y1 - box.y0 + 1;
                ++out.stats.boxSamples;
            }

            rasterizeTriangle(
                setup, scene.screenW, scene.screenH, order,
                [&](const Fragment &frag) {
                    ++out.stats.fragments;

                    // LOD from derivatives scaled to level-0 texels.
                    float lambda = computeLod(
                        frag.dudx * tex_w, frag.dvdx * tex_h,
                        frag.dudy * tex_w, frag.dvdy * tex_h);

                    SampleResult s;
                    if (opts.vtResolve) {
                        VtDecision vt = opts.vtResolve(
                            tri.texture, frag.u, frag.v, lambda);
                        s = vt.degraded
                                ? sampleLevelBilinear(mip, vt.level,
                                                      frag.u, frag.v)
                                : sampleMipMapMode(mip, frag.u, frag.v,
                                                   lambda,
                                                   opts.filterMode);
                    } else {
                        s = sampleMipMapMode(mip, frag.u, frag.v,
                                             lambda, opts.filterMode);
                    }
                    out.stats.texelAccesses += s.numTouches;
                    out.stats.lodLevels.sample(s.touches[0].level);
                    if (s.kind == FilterKind::Bilinear)
                        ++out.stats.bilinearFragments;
                    else if (s.kind == FilterKind::Nearest)
                        ++out.stats.nearestFragments;
                    else
                        ++out.stats.trilinearFragments;

                    if (opts.captureTrace) {
                        if (opts.traceSink) {
                            uint64_t rec[8];
                            unsigned nr = packSampleRecords(
                                tri.texture, s, rec);
                            opts.traceSink->append(rec, nr);
                        } else {
                            out.trace.appendSample(tri.texture, s);
                        }
                    }
                    if (opts.onFragment)
                        opts.onFragment(frag, s, tri.texture);

                    if (opts.countRepetition) {
                        // Footprint anchor at the filter's first level:
                        // unwrapped vs wrapped integer texel coordinate.
                        unsigned lvl = s.touches[0].level;
                        const Image &li = mip.level(lvl);
                        float su = frag.u * li.width() - 0.5f;
                        float sv = frag.v * li.height() - 0.5f;
                        int32_t iu = static_cast<int32_t>(std::floor(su));
                        int32_t iv = static_cast<int32_t>(std::floor(sv));
                        repetition.record(
                            tri.texture, static_cast<uint16_t>(lvl), iu,
                            iv, s.touches[0].u, s.touches[0].v);
                    }

                    // Depth test after texturing (paper Fig 2.1).
                    size_t pix = static_cast<size_t>(frag.y) *
                                     scene.screenW +
                                 frag.x;
                    if (frag.depth < zbuf[pix]) {
                        zbuf[pix] = frag.depth;
                        if (opts.writeFramebuffer) {
                            auto toByte = [](float f) {
                                f = f < 0.0f ? 0.0f
                                             : (f > 1.0f ? 1.0f : f);
                                return static_cast<uint8_t>(f * 255.0f +
                                                            0.5f);
                            };
                            Rgba8 texel = {toByte(s.color.x),
                                           toByte(s.color.y),
                                           toByte(s.color.z),
                                           toByte(s.color.w)};
                            out.framebuffer.texel(frag.x, frag.y) = {
                                modulate(texel.r, frag.shade),
                                modulate(texel.g, frag.shade),
                                modulate(texel.b, frag.shade), texel.a};
                        }
                    }
                });
        }

        out.stats.sumCoveredArea +=
            static_cast<double>(out.stats.fragments - covered_before);
    }

    out.repetition = repetition.counts();
    return out;
}

void
exportRenderStats(stats::Group &g, const RenderStats &s)
{
    g.formula("triangles_in", "scene triangles submitted",
              [&s] { return double(s.trianglesIn); });
    g.formula("triangles_rasterized", "post-clip screen triangles",
              [&s] { return double(s.trianglesRasterized); });
    g.formula("fragments", "textured pixels (with overdraw)",
              [&s] { return double(s.fragments); });
    g.formula("texel_accesses", "texels touched by the filters",
              [&s] { return double(s.texelAccesses); });
    g.formula("bilinear_fragments", "single-level bilinear fragments",
              [&s] { return double(s.bilinearFragments); });
    g.formula("trilinear_fragments", "two-level trilinear fragments",
              [&s] { return double(s.trilinearFragments); });
    g.formula("nearest_fragments", "nearest-filter fragments",
              [&s] { return double(s.nearestFragments); });
    g.distribution("lod_levels", "base mip level sampled per fragment",
                   s.lodLevels);
}

} // namespace texcache
