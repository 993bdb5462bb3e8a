#include "core/scene_layout.hh"

#include <string>

namespace texcache {

SceneLayout::SceneLayout(const Scene &scene, const LayoutParams &params)
    : params_(params), space_(params.baseAlign)
{
    layouts_.reserve(scene.textures.size());
    for (const MipMap &mip : scene.textures)
        layouts_.emplace_back(params, levelDims(mip), space_);
    for (const TextureLayout &lay : layouts_)
        maps_.push_back({lay.levelMaps(), lay.numLevels()});
    footprint_ = space_.used();
}

void
SceneLayout::rejectRecord(uint64_t rec) const
{
    TexelRecord r = TexelRecord::unpack(rec);
    std::string where = "trace record outside the scene: texture " +
                        std::to_string(r.texture) + ", level " +
                        std::to_string(r.level) + ", texel (" +
                        std::to_string(r.u) + ", " +
                        std::to_string(r.v) + "); ";
    fatal_if(r.texture >= layouts_.size(), where, "scene textures: ",
             layouts_.size());
    const TextureLayout &lay = layouts_[r.texture];
    fatal_if(r.level >= lay.numLevels(), where, "texture levels: ",
             lay.numLevels());
    LevelDims d = lay.dims(r.level);
    fatal(where, "level size: ", d.w, "x", d.h);
}

} // namespace texcache
