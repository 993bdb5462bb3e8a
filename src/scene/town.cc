/**
 * @file
 * The Town benchmark: a street of brick buildings with small facade
 * textures that appear *upright* on screen (paper Fig 4.2).
 *
 * Published characteristics targeted (Table 4.1): 1280x1024, ~5317
 * triangles, 51 textures totalling ~4.7 MB, texture repetition factor
 * ~2.9 (facades tile a small brick image). Because the textures are
 * upright, rasterizing this scene vertically makes texel accesses run
 * perpendicular to the rows of the nonblocked representation - the
 * paper's worst case (Fig 5.2(b)).
 */

#include "img/procedural.hh"
#include "scene/benchmarks.hh"
#include "scene/mesh_util.hh"

#include "common/rng.hh"

namespace texcache {

namespace {

constexpr unsigned kBuildings = 26;     // 13 per street side
constexpr unsigned kFacadeTextures = 48;
constexpr float kUvRepeat = 2.0f;       // facade tiling factor
constexpr uint16_t kRoofTex = 48;
constexpr uint16_t kRoadTex = 49;
constexpr uint16_t kSignTex = 50;

} // namespace

Scene
makeTownScene()
{
    Scene scene;
    scene.name = "Town";
    scene.screenW = 1280;
    scene.screenH = 1024;

    // 48 facade brick variants + roof + sign at 128x128, road at
    // 256x256: ~4.7 MB of mip-mapped storage (paper: 4.7 MB).
    std::vector<TextureMaker> makers;
    for (unsigned i = 0; i < kFacadeTextures; ++i)
        makers.push_back([i] { return makeBricks(128, 128, 500u + i); });
    makers.push_back([] {
        return makeChecker(128, 16, Rgba8{70, 60, 55, 255},
                           Rgba8{90, 80, 70, 255});
    }); // roof
    makers.push_back([] { return makeBricks(256, 256, 999u); }); // road
    makers.push_back([] {
        return makeChecker(128, 4, Rgba8{220, 40, 40, 255},
                           Rgba8{240, 230, 200, 255});
    }); // sign
    addTextures(scene, makers);

    Vec3 light{0.5f, -1.0f, 0.2f};
    Rng rng(4242);

    // Road plane along +z; 10 x 11 patch = 220 triangles.
    addQuadPatch(scene, kRoadTex, Vec3{-60, 0, -20}, Vec3{60, 0, -20},
                 Vec3{60, 0, 420}, Vec3{-60, 0, 420}, Vec2{0, 0},
                 Vec2{2, 8}, 10, 11, light);

    // Buildings: 13 per side. 26 * (2*96 + 2) = 5044 triangles.
    for (unsigned b = 0; b < kBuildings; ++b) {
        bool left = (b & 1) == 0;
        unsigned slot = b / 2;
        float zc = 18.0f + 30.0f * static_cast<float>(slot);
        float half_w = 8.0f + rng.uniform() * 3.0f;  // half width (x)
        float half_d = 8.0f + rng.uniform() * 3.0f;  // half depth (z)
        float h = 18.0f + rng.uniform() * 24.0f;     // height
        float xc = left ? -(13.0f + half_w) : (13.0f + half_w);

        uint16_t tex = static_cast<uint16_t>(b % kFacadeTextures);

        float x0 = xc - half_w, x1 = xc + half_w;
        float z0 = zc - half_d, z1 = zc + half_d;
        Vec2 uv0{0, 0}, uv1{kUvRepeat, kUvRepeat};

        // Only the two camera-facing facades are modelled (the demo
        // scenes texture flat surfaces, and walls facing away would be
        // backface-culled by GL anyway): the wall toward the street and
        // the wall toward the camera, each subdivided 8 x 6, plus a
        // 2-triangle roof. Facade v runs up the wall so the texture
        // stands upright on screen.
        addQuadPatch(scene, tex, Vec3{x0, 0, z0}, Vec3{x1, 0, z0},
                     Vec3{x1, h, z0}, Vec3{x0, h, z0}, uv0, uv1, 8, 6,
                     light); // front (-z, toward camera)
        if (left) {
            addQuadPatch(scene, tex, Vec3{x1, 0, z0}, Vec3{x1, 0, z1},
                         Vec3{x1, h, z1}, Vec3{x1, h, z0}, uv0, uv1, 8,
                         6, light); // right (+x, toward street)
        } else {
            addQuadPatch(scene, tex, Vec3{x0, 0, z1}, Vec3{x0, 0, z0},
                         Vec3{x0, h, z0}, Vec3{x0, h, z1}, uv0, uv1, 8,
                         6, light); // left (-x, toward street)
        }
        addQuadPatch(scene, kRoofTex, Vec3{x0, h, z0}, Vec3{x1, h, z0},
                     Vec3{x1, h, z1}, Vec3{x0, h, z1}, Vec2{0, 0},
                     Vec2{1, 1}, 1, 1, light); // roof
    }

    // A billboard sign at the end of the street (uses the 51st
    // texture): 2 triangles. Total 5318 (paper: 5317).
    addQuadPatch(scene, kSignTex, Vec3{-8, 6, 400}, Vec3{8, 6, 400},
                 Vec3{8, 16, 400}, Vec3{-8, 16, 400}, Vec2{0, 0},
                 Vec2{1, 1}, 1, 1, light);

    // Street-level camera looking down the road; facades upright.
    scene.view = Mat4::lookAt(Vec3{0.0f, 9.0f, -14.0f},
                              Vec3{0.0f, 8.5f, 120.0f}, Vec3{0, 1, 0});
    scene.proj = Mat4::perspective(/*fovy=*/0.95f,
                                   /*aspect=*/1280.0f / 1024.0f,
                                   /*near=*/1.0f, /*far=*/800.0f);
    return scene;
}

} // namespace texcache
