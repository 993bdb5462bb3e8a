#include "trace/trace_stats.hh"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace texcache {

size_t
FlatKeySet::capacityFor(size_t n)
{
    return std::bit_ceil(std::max<size_t>(16, 2 * n));
}

bool
FlatKeySet::place(uint64_t key)
{
    // MurmurHash3's 64-bit finalizer: every key bit reaches the low
    // bits the slot index takes, so keys that differ only in their
    // texture or level bits still spread.
    uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
        if (slots_[i] == key)
            return false;
        if (slots_[i] == 0) {
            slots_[i] = key;
            ++used_;
            return true;
        }
    }
}

void
FlatKeySet::rehash(size_t cap)
{
    std::vector<uint64_t> prev(cap);
    prev.swap(slots_);
    used_ = 0;
    for (uint64_t key : prev)
        if (key)
            place(key);
}

TraceStats
analyzeTrace(const TexelTrace &trace)
{
    TraceStats stats;
    // Unique-texel sets, one per filter role; key = packed coordinates
    // without the kind bits so roles are tracked independently.
    std::unordered_set<uint64_t> uniq[4];

    bool have_prev = false;
    uint16_t prev_tex = 0;

    trace.forEach([&](const TexelRecord &r) {
        ++stats.accesses;
        unsigned k = static_cast<unsigned>(r.kind);
        PerTexelStats *per;
        switch (k) {
          case 0:
            per = &stats.bilinear;
            break;
          case 1:
            per = &stats.trilinearLower;
            break;
          case 2:
            per = &stats.trilinearUpper;
            break;
          default:
            per = &stats.nearest;
            break;
        }
        ++per->accesses;
        uint64_t key = static_cast<uint64_t>(r.u) |
                       (static_cast<uint64_t>(r.v) << 16) |
                       (static_cast<uint64_t>(r.level) << 32) |
                       (static_cast<uint64_t>(r.texture) << 37);
        if (uniq[k].insert(key).second)
            ++per->uniqueTexels;

        if (!have_prev || r.texture != prev_tex) {
            ++stats.textureRuns;
            prev_tex = r.texture;
            have_prev = true;
        }
    });
    return stats;
}

} // namespace texcache
