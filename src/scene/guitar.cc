/**
 * @file
 * The Guitar benchmark: a guitar on a table, built from few, large
 * triangles with textures that are *not* uniformly oriented on screen
 * (paper Fig 4.3).
 *
 * Published characteristics targeted (Table 4.1): 800x800, ~719
 * triangles with a large ~1867 px average area, 8 textures totalling
 * ~4.9 MB. The mixed texture orientations make the scene insensitive to
 * the rasterization direction under the nonblocked representation,
 * while the large triangles make it respond strongly to tiled
 * rasterization (Fig 6.2).
 */

#include <cmath>

#include "img/procedural.hh"
#include "scene/benchmarks.hh"
#include "scene/mesh_util.hh"

namespace texcache {

namespace {

constexpr uint16_t kBodyTex = 0;      // 512x512 wood
constexpr uint16_t kTableTex = 1;     // 512x512 wood
constexpr uint16_t kFretboardTex = 2; // 256x256
constexpr uint16_t kHeadTex = 3;
constexpr uint16_t kPickguardTex = 4;
constexpr uint16_t kRosetteTex = 5;
constexpr uint16_t kBridgeTex = 6;
constexpr uint16_t kStringTex = 7;

constexpr float kPi = 3.14159265f;

/** Rotate a point in the xy plane about the origin. */
Vec3
rot(Vec3 p, float angle)
{
    float c = std::cos(angle), s = std::sin(angle);
    return {c * p.x - s * p.y, s * p.x + c * p.y, p.z};
}

/** Append a textured disc as a triangle fan (n triangles). */
void
addDisc(Scene &scene, uint16_t tex, Vec3 center, float rx, float ry,
        float z, unsigned n, float angle, float shade)
{
    auto rim = [&](unsigned i) {
        float a = 2.0f * kPi * static_cast<float>(i) / n;
        Vec3 p{center.x + rx * std::cos(a), center.y + ry * std::sin(a),
               z};
        SceneVertex v;
        v.pos = rot(p, angle);
        v.uv = {0.5f + 0.30f * std::cos(a), 0.5f + 0.30f * std::sin(a)};
        v.shade = shade;
        return v;
    };
    SceneVertex c;
    c.pos = rot(Vec3{center.x, center.y, z}, angle);
    c.uv = {0.5f, 0.5f};
    c.shade = shade;
    for (unsigned i = 0; i < n; ++i) {
        scene.triangles.push_back({{c, rim(i), rim((i + 1) % n)}, tex});
    }
}

/** Append an annulus (ring) of 2n triangles. */
void
addRing(Scene &scene, uint16_t tex, Vec3 center, float r0, float r1,
        float z, unsigned n, float angle, float shade)
{
    auto at = [&](unsigned i, float r) {
        float a = 2.0f * kPi * static_cast<float>(i) / n;
        SceneVertex v;
        v.pos = rot(Vec3{center.x + r * std::cos(a),
                         center.y + r * std::sin(a), z},
                    angle);
        v.uv = {0.5f + 0.30f * (r / r1) * std::cos(a),
                0.5f + 0.30f * (r / r1) * std::sin(a)};
        v.shade = shade;
        return v;
    };
    for (unsigned i = 0; i < n; ++i) {
        unsigned j = (i + 1) % n;
        SceneVertex a0 = at(i, r0), a1 = at(j, r0);
        SceneVertex b0 = at(i, r1), b1 = at(j, r1);
        scene.triangles.push_back({{a0, b0, b1}, tex});
        scene.triangles.push_back({{a0, b1, a1}, tex});
    }
}

} // namespace

Scene
makeGuitarScene()
{
    Scene scene;
    scene.name = "Guitar";
    scene.screenW = 800;
    scene.screenH = 800;

    addTextures(scene, {
        [] { return makeWood(512, 512, 11u); },  // body
        [] { return makeWood(512, 512, 23u); },  // table
        [] { return makeWood(256, 256, 31u); },  // fretboard
        [] { return makeWood(256, 256, 41u); },  // headstock
        [] { return makeMarble(256, 51u); },     // pickguard
        [] {
            return makeChecker(256, 16, Rgba8{180, 150, 90, 255},
                               Rgba8{60, 40, 20, 255});
        },                                       // rosette
        [] { return makeWood(256, 256, 61u); },  // bridge
        [] { return makeMarble(256, 71u); },     // strings
    });

    Vec3 light{0.2f, -0.3f, -1.0f};
    float body_shade = lambertShade(Vec3{0.05f, 0.1f, 1}, light);

    // The guitar lies diagonally across the table.
    const float tilt = 0.6f; // ~34 degrees

    // Table: two large patches with differently rotated texture axes
    // (5x5 each = 100 triangles).
    addQuadPatch(scene, kTableTex, Vec3{-2.4f, -2.4f, 0}, Vec3{2.4f,
                 -2.4f, 0}, Vec3{2.4f, 0.0f, 0}, Vec3{-2.4f, 0.0f, 0},
                 Vec2{0, 0}, Vec2{0.8f, 0.4f}, 5, 5, light);
    // Second half with the texture axis rotated 90 degrees on screen,
    // so the scene has no dominant texture orientation.
    addQuadPatch(scene, kTableTex, Vec3{2.4f, 0.0f, 0}, Vec3{2.4f, 2.4f,
                 0}, Vec3{-2.4f, 2.4f, 0}, Vec3{-2.4f, 0.0f, 0},
                 Vec2{0, 0}, Vec2{0.4f, 0.8f}, 5, 5, light);

    // Body: lower bout (150 tris) + upper bout (120 tris).
    addDisc(scene, kBodyTex, Vec3{0.0f, -0.55f, 0}, 1.05f, 0.95f, 0.05f,
            150, tilt, body_shade);
    addDisc(scene, kBodyTex, Vec3{0.0f, 0.55f, 0}, 0.80f, 0.72f, 0.05f,
            120, tilt, body_shade);

    // Rosette around the sound hole (2*40 = 80 tris).
    addRing(scene, kRosetteTex, Vec3{0.0f, 0.15f, 0}, 0.16f, 0.30f,
            0.06f, 40, tilt, body_shade);

    // Pickguard (50 tris).
    addDisc(scene, kPickguardTex, Vec3{0.45f, -0.35f, 0}, 0.34f, 0.26f,
            0.06f, 50, tilt, body_shade);

    // Neck: long diagonal strip, 2 x 12 subdivisions (48 tris) plus
    // fretboard overlay 2 x 12 (48 tris).
    {
        Vec3 n0 = rot(Vec3{-0.16f, 1.1f, 0.06f}, tilt);
        Vec3 n1 = rot(Vec3{0.16f, 1.1f, 0.06f}, tilt);
        Vec3 n2 = rot(Vec3{0.12f, 2.9f, 0.06f}, tilt);
        Vec3 n3 = rot(Vec3{-0.12f, 2.9f, 0.06f}, tilt);
        addQuadPatch(scene, kFretboardTex, n0, n1, n2, n3, Vec2{0, 0},
                     Vec2{1, 4}, 2, 12, light);
        Vec3 f0 = rot(Vec3{-0.13f, 1.1f, 0.08f}, tilt);
        Vec3 f1 = rot(Vec3{0.13f, 1.1f, 0.08f}, tilt);
        Vec3 f2 = rot(Vec3{0.10f, 2.75f, 0.08f}, tilt);
        Vec3 f3 = rot(Vec3{-0.10f, 2.75f, 0.08f}, tilt);
        addQuadPatch(scene, kFretboardTex, f0, f1, f2, f3, Vec2{0, 0},
                     Vec2{1, 4}, 2, 12, light);
    }

    // Headstock (4x4 = 32 tris).
    {
        Vec3 h0 = rot(Vec3{-0.22f, 2.9f, 0.07f}, tilt);
        Vec3 h1 = rot(Vec3{0.22f, 2.9f, 0.07f}, tilt);
        Vec3 h2 = rot(Vec3{0.18f, 3.5f, 0.07f}, tilt);
        Vec3 h3 = rot(Vec3{-0.18f, 3.5f, 0.07f}, tilt);
        addQuadPatch(scene, kHeadTex, h0, h1, h2, h3, Vec2{0, 0},
                     Vec2{1, 1}, 4, 4, light);
    }

    // Bridge (2x2 = 8 tris).
    {
        Vec3 b0 = rot(Vec3{-0.30f, -0.95f, 0.07f}, tilt);
        Vec3 b1 = rot(Vec3{0.30f, -0.95f, 0.07f}, tilt);
        Vec3 b2 = rot(Vec3{0.30f, -0.75f, 0.07f}, tilt);
        Vec3 b3 = rot(Vec3{-0.30f, -0.75f, 0.07f}, tilt);
        addQuadPatch(scene, kBridgeTex, b0, b1, b2, b3, Vec2{0, 0},
                     Vec2{1, 1}, 2, 2, light);
    }

    // Six strings: thin quads, 1 x 8 subdivisions each (96 tris).
    for (int s = 0; s < 6; ++s) {
        float x = -0.10f + 0.04f * static_cast<float>(s);
        Vec3 s0 = rot(Vec3{x - 0.006f, -0.85f, 0.09f}, tilt);
        Vec3 s1 = rot(Vec3{x + 0.006f, -0.85f, 0.09f}, tilt);
        Vec3 s2 = rot(Vec3{x + 0.006f, 2.9f, 0.09f}, tilt);
        Vec3 s3 = rot(Vec3{x - 0.006f, 2.9f, 0.09f}, tilt);
        addQuadPatch(scene, kStringTex, s0, s1, s2, s3, Vec2{0, 0},
                     Vec2{1, 8}, 1, 8, light);
    }

    // Total: 100 + 270 + 80 + 50 + 96 + 32 + 8 + 96 = 732 (paper: 719).

    scene.view = Mat4::lookAt(Vec3{0.15f, 0.25f, 4.4f},
                              Vec3{0.15f, 0.25f, 0.0f}, Vec3{0, 1, 0});
    scene.proj = Mat4::perspective(/*fovy=*/1.0f, /*aspect=*/1.0f,
                                   /*near=*/0.5f, /*far=*/50.0f);
    return scene;
}

} // namespace texcache
