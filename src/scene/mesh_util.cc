#include "scene/mesh_util.hh"

#include <algorithm>

#include "core/sweep.hh"

namespace texcache {

void
addTextures(Scene &scene, const std::vector<TextureMaker> &makers)
{
    auto built = Sweep::run(makers, [](const TextureMaker &make) {
        return MipMap(make());
    });
    for (SweepResult<MipMap> &r : built)
        scene.textures.push_back(std::move(r.value));
}

float
lambertShade(Vec3 normal, Vec3 light_dir, float ambient)
{
    float ndl = normal.normalized().dot(light_dir.normalized() * -1.0f);
    ndl = std::max(0.0f, ndl);
    return std::min(1.0f, ambient + (1.0f - ambient) * ndl);
}

unsigned
addQuadPatch(Scene &scene, uint16_t texture, Vec3 p00, Vec3 p10, Vec3 p11,
             Vec3 p01, Vec2 uv00, Vec2 uv11, unsigned nu, unsigned nv,
             Vec3 light_dir)
{
    Vec3 normal = (p10 - p00).cross(p01 - p00);
    float shade = lambertShade(normal, light_dir);

    auto corner = [&](float s, float t) {
        Vec3 bottom = p00 + (p10 - p00) * s;
        Vec3 top = p01 + (p11 - p01) * s;
        SceneVertex v;
        v.pos = bottom + (top - bottom) * t;
        v.uv = {uv00.x + (uv11.x - uv00.x) * s,
                uv00.y + (uv11.y - uv00.y) * t};
        v.shade = shade;
        return v;
    };

    unsigned added = 0;
    for (unsigned j = 0; j < nv; ++j) {
        for (unsigned i = 0; i < nu; ++i) {
            float s0 = static_cast<float>(i) / nu;
            float s1 = static_cast<float>(i + 1) / nu;
            float t0 = static_cast<float>(j) / nv;
            float t1 = static_cast<float>(j + 1) / nv;
            SceneVertex v00 = corner(s0, t0);
            SceneVertex v10 = corner(s1, t0);
            SceneVertex v11 = corner(s1, t1);
            SceneVertex v01 = corner(s0, t1);
            scene.triangles.push_back({{v00, v10, v11}, texture});
            scene.triangles.push_back({{v00, v11, v01}, texture});
            added += 2;
        }
    }
    return added;
}

} // namespace texcache
