/**
 * @file
 * The Flight benchmark: satellite-textured mountainous terrain viewed
 * from low altitude (paper Fig 4.1).
 *
 * Published characteristics targeted (Table 4.1): 1280x1024, ~9152
 * triangles, average triangle area ~294 px, 15 textures, ~56 MB of
 * texture. The defining property is a large, continuous variation in
 * level-of-detail from the near ground plane to the horizon, which
 * fragments mip-map accesses and gives Flight the highest cold miss
 * rate of the four scenes.
 */

#include <cmath>

#include "img/procedural.hh"
#include "scene/benchmarks.hh"
#include "scene/mesh_util.hh"

namespace texcache {

namespace {

// Terrain extent in world units and grid resolution. 70 x 66 quads =
// 9240 triangles (paper: 9152). Sectors form a 5 x 3 grid, one texture
// per sector (15 textures).
constexpr float kExtent = 4096.0f;
constexpr unsigned kQuadsX = 70;
constexpr unsigned kQuadsZ = 66;
constexpr unsigned kSectorsX = 5;
constexpr unsigned kSectorsZ = 3;
constexpr float kAmplitude = 620.0f;

float
terrainHeight(float x, float z)
{
    float nx = x / kExtent * 6.0f;
    float nz = z / kExtent * 6.0f;
    float n = valueNoise(nx, nz, 6, /*seed=*/1234u);
    // Sharpen ridges a little for a mountainous look.
    return (n * n) * kAmplitude;
}

} // namespace

Scene
makeFlightScene()
{
    return makeFlightSceneAt(0.0f);
}

Scene
makeFlightSceneAt(float time)
{
    Scene scene;
    scene.name = "Flight";
    scene.screenW = 1280;
    scene.screenH = 1024;

    // 8 large + 7 medium satellite textures: ~55 MB of mip-mapped
    // storage (paper: 56 MB).
    std::vector<TextureMaker> makers;
    for (unsigned i = 0; i < 15; ++i) {
        unsigned size = i < 8 ? 1024 : 512;
        makers.push_back(
            [size, i] { return makeSatellite(size, 7000u + i); });
    }
    addTextures(scene, makers);

    Vec3 light{0.4f, -1.0f, 0.3f};

    // Emit the grid sector by sector so each texture's accesses form
    // one long run (section 5.2.3 measures these runlengths).
    const unsigned quads_per_sx = kQuadsX / kSectorsX; // 14
    const unsigned quads_per_sz = kQuadsZ / kSectorsZ; // 22

    auto grid_pos = [&](unsigned gi, unsigned gj) {
        float x = kExtent * static_cast<float>(gi) / kQuadsX;
        float z = kExtent * static_cast<float>(gj) / kQuadsZ;
        return Vec3{x, terrainHeight(x, z), z};
    };

    for (unsigned sz = 0; sz < kSectorsZ; ++sz) {
        for (unsigned sx = 0; sx < kSectorsX; ++sx) {
            uint16_t tex = static_cast<uint16_t>(sz * kSectorsX + sx);
            for (unsigned j = 0; j < quads_per_sz; ++j) {
                for (unsigned i = 0; i < quads_per_sx; ++i) {
                    unsigned gi = sx * quads_per_sx + i;
                    unsigned gj = sz * quads_per_sz + j;
                    Vec3 p00 = grid_pos(gi, gj);
                    Vec3 p10 = grid_pos(gi + 1, gj);
                    Vec3 p11 = grid_pos(gi + 1, gj + 1);
                    Vec3 p01 = grid_pos(gi, gj + 1);

                    // Sector-local texture coordinates in [0, 1].
                    auto uv = [&](unsigned a, unsigned b) {
                        return Vec2{
                            static_cast<float>(a) / quads_per_sx,
                            static_cast<float>(b) / quads_per_sz};
                    };
                    Vec2 t00 = uv(i, j), t10 = uv(i + 1, j);
                    Vec2 t11 = uv(i + 1, j + 1), t01 = uv(i, j + 1);

                    Vec3 n = (p10 - p00).cross(p01 - p00) * -1.0f;
                    float shade = lambertShade(n, light);
                    SceneVertex v00{p00, t00, shade};
                    SceneVertex v10{p10, t10, shade};
                    SceneVertex v11{p11, t11, shade};
                    SceneVertex v01{p01, t01, shade};
                    scene.triangles.push_back({{v00, v10, v11}, tex});
                    scene.triangles.push_back({{v00, v11, v01}, tex});
                }
            }
        }
    }

    // Low flight over the terrain looking toward the far edge: near
    // quads project large (low LOD), the horizon tiny (high LOD).
    // `time` advances the aircraft along -z (one unit ~ one frame at
    // ~60 world units per frame), for inter-frame locality studies.
    float eye_x = kExtent * 0.5f;
    float eye_z = kExtent * 0.97f - 60.0f * time;
    float eye_y = terrainHeight(eye_x, eye_z) + 230.0f;
    Vec3 eye{eye_x, eye_y, eye_z};
    Vec3 at{kExtent * 0.5f, -420.0f, kExtent * 0.35f};
    scene.view = Mat4::lookAt(eye, at, Vec3{0, 1, 0});
    scene.proj = Mat4::perspective(/*fovy=*/1.05f,
                                   /*aspect=*/1280.0f / 1024.0f,
                                   /*near=*/2.0f, /*far=*/12000.0f);
    return scene;
}

} // namespace texcache
