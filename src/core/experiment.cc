#include "core/experiment.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/shard_replay.hh"
#include "trace/chunked_trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "tracing/tracing.hh"

namespace texcache {

namespace {

/**
 * Trace-cache key material. The schema constant must be bumped
 * whenever the packed record format changes; the build stamp rotates
 * whenever this translation unit (or any header it includes -
 * renderer, scenes, sampler) is recompiled, which invalidates cached
 * traces across builds. A stale cache is still possible after an
 * incremental rebuild that does not touch this TU; the cache is
 * opt-in via TEXCACHE_TRACE_CACHE_DIR for exactly that reason.
 */
constexpr uint64_t kTraceSchema = 1;

uint64_t
fnv1a(const std::string &s, uint64_t h = 1469598103934665603ULL)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/** Write @p trace to @p path via a temp file so readers never see a
 *  torn file (benches may share one cache directory). */
void
writeTraceCache(const TexelTrace &trace, const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::string tmp = path + ".tmp";
    writeTrace(trace, tmp);
    std::rename(tmp.c_str(), path.c_str());
}

} // namespace

SceneSpec
SceneSpec::quadScene(unsigned tex, unsigned screen, float repeat)
{
    SceneSpec s;
    s.quad = true;
    s.quadTex = tex;
    s.quadScreen = screen;
    s.quadRepeat = repeat;
    return s;
}

std::string
SceneSpec::key() const
{
    if (!quad)
        return benchSceneName(bench);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "quad-%ux%u-r%g", quadTex,
                  quadScreen, static_cast<double>(quadRepeat));
    return buf;
}

Scene
SceneSpec::build() const
{
    return quad ? makeQuadTestScene(quadTex, quadScreen, quadRepeat)
                : makeScene(bench);
}

namespace {

/** Shared trace-cache naming: <dir>/<scene>-<order>-<stamp><ext>. */
std::string
cacheEntryPath(const SceneSpec &s, const RasterOrder &order,
               const std::string &dir, uint64_t revision,
               const char *ext)
{
    // Key material: build stamp, record schema, render-path revision.
    // The revision keeps traces from an older execution model (e.g.
    // the serial-only renderer) from masking a trace-generation bug in
    // a newer one even when the build stamp happens to survive an
    // incremental rebuild.
    uint64_t h = fnv1a(__DATE__ " " __TIME__,
                       fnv1a(std::to_string(kTraceSchema)));
    h = fnv1a(std::to_string(revision), h);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return dir + "/" + s.key() + "-" + order.str() + "-" + hex + ext;
}

/** @p dir, or TEXCACHE_TRACE_CACHE_DIR, or "". */
std::string
cacheDirOrEnv(const std::string &dir)
{
    if (!dir.empty())
        return dir;
    const char *env = std::getenv("TEXCACHE_TRACE_CACHE_DIR");
    return env && *env ? env : "";
}

} // namespace

std::string
traceCachePath(const SceneSpec &s, const RasterOrder &order,
               uint64_t revision)
{
    std::string dir = cacheDirOrEnv("");
    if (dir.empty())
        return "";
    return cacheEntryPath(s, order, dir, revision, ".trace");
}

std::string
chunkedTracePath(const SceneSpec &s, const RasterOrder &order,
                 const std::string &dir, uint64_t revision)
{
    std::string d = cacheDirOrEnv(dir);
    if (d.empty())
        return "";
    return cacheEntryPath(s, order, d, revision, ".ctrace");
}

uint64_t
traceCacheCapBytes()
{
    const char *env = std::getenv("TEXCACHE_TRACE_CACHE_CAP");
    if (!env || !*env)
        return 0;
    char *rest = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(env, &rest, 10);
    uint64_t mult = 1;
    if (rest != env && *rest) {
        switch (*rest) {
          case 'k': case 'K': mult = 1ull << 10; ++rest; break;
          case 'm': case 'M': mult = 1ull << 20; ++rest; break;
          case 'g': case 'G': mult = 1ull << 30; ++rest; break;
          default: break;
        }
    }
    fatal_if(rest == env || *rest || errno == ERANGE,
             "TEXCACHE_TRACE_CACHE_CAP='", env,
             "' is not a byte count (expected digits with optional "
             "K/M/G suffix)");
    return v * mult;
}

uint64_t
pruneTraceCache(const std::string &dir, uint64_t cap_bytes,
                const std::string &keep)
{
    namespace fs = std::filesystem;
    if (!cap_bytes || dir.empty())
        return 0;

    struct Entry
    {
        fs::path path;
        uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        std::string ext = de.path().extension().string();
        if (ext != ".trace" && ext != ".ctrace" && ext != ".tmp")
            continue;
        uint64_t bytes = de.file_size(ec);
        if (ec)
            continue;
        total += bytes;
        entries.push_back({de.path(), bytes,
                           fs::last_write_time(de.path(), ec)});
    }
    if (total <= cap_bytes)
        return 0;

    // LRU by mtime: evict the least recently written first.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    uint64_t pruned = 0;
    for (const Entry &e : entries) {
        if (total <= cap_bytes)
            break;
        if (!keep.empty() && fs::path(keep) == e.path)
            continue;
        if (!fs::remove(e.path, ec))
            continue;
        total -= e.bytes;
        pruned += e.bytes;
        inform("trace cache: pruned ", e.path.string(), " (", e.bytes,
               " bytes) to meet cap ", cap_bytes);
    }
    return pruned;
}

const Scene &
TraceStore::scene(const SceneSpec &s)
{
    std::string key = s.key();
    auto it = scenes_.find(key);
    if (it == scenes_.end()) {
        static const uint16_t kBuildSpan = tracing::nameId("scene.build");
        inform("building scene ", key);
        tracing::ScopedSpan span(kBuildSpan);
        it = scenes_.emplace(std::move(key), s.build()).first;
    }
    return it->second;
}

const RenderOutput &
TraceStore::output(const SceneSpec &s, const RasterOrder &order)
{
    auto key = std::make_pair(s.key(), order.str());
    auto it = outputs_.find(key);
    if (it == outputs_.end()) {
        const Scene &sc = scene(s);
        inform("rendering ", key.first, " (", order.str(), ")");
        RenderOptions opts;
        opts.writeFramebuffer = false; // figures need traces only
        auto t0 = std::chrono::steady_clock::now();
        it = outputs_.emplace(key, render(sc, order, opts)).first;
        // Single-writer (dispatcher) accounting; relaxed stores pair
        // with the relaxed reads in the metrics snapshot.
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        renderMillis_.store(
            renderMillis_.load(std::memory_order_relaxed) + ms,
            std::memory_order_relaxed);
        renders_.fetch_add(1, std::memory_order_relaxed);
        std::string path = traceCachePath(s, order);
        if (!path.empty() && !std::filesystem::exists(path)) {
            writeTraceCache(it->second.trace, path);
            pruneTraceCache(
                std::filesystem::path(path).parent_path().string(),
                traceCacheCapBytes(), path);
        }
    }
    return it->second;
}

const TexelTrace &
TraceStore::trace(const SceneSpec &s, const RasterOrder &order)
{
    auto key = std::make_pair(s.key(), order.str());
    if (auto it = outputs_.find(key); it != outputs_.end())
        return it->second.trace;
    if (auto it = diskTraces_.find(key); it != diskTraces_.end())
        return it->second;
    std::string path = traceCachePath(s, order);
    if (!path.empty() && std::filesystem::exists(path)) {
        inform("trace cache hit: ", path);
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        auto it = diskTraces_.emplace(key, readTrace(path)).first;
        return it->second;
    }
    return output(s, order).trace;
}

std::string
TraceStore::spillTrace(const SceneSpec &s, const RasterOrder &order,
                       const std::string &dir)
{
    std::string path = chunkedTracePath(s, order, dir);
    fatal_if(path.empty(),
             "spillTrace needs a cache directory (argument or "
             "TEXCACHE_TRACE_CACHE_DIR)");

    if (std::filesystem::exists(path)) {
        ChunkedTraceFile f;
        TraceFileError err;
        if (f.open(path, err)) {
            inform("chunked trace cache hit: ", path);
            diskHits_.fetch_add(1, std::memory_order_relaxed);
            // The cap holds in the all-hits steady state too (the
            // cap may have been lowered since the file was written).
            pruneTraceCache(
                std::filesystem::path(path).parent_path().string(),
                traceCacheCapBytes(), path);
            return path;
        }
        // A torn writer run (crash before finalize) or foreign bytes
        // under our name: re-render over it.
        inform("chunked trace ", path, " rejected (", err.str(),
               "); re-rendering");
    }

    const Scene &sc = scene(s);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::string tmp = path + ".tmp";
    inform("rendering ", s.key(), " (", order.str(),
           ") streamed to ", path);
    auto t0 = std::chrono::steady_clock::now();
    {
        ChunkedTraceWriter writer(tmp);
        RenderOptions opts;
        opts.writeFramebuffer = false;
        opts.countRepetition = false;
        opts.traceSink = &writer;
        render(sc, order, opts);
        writer.finalize();
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    renderMillis_.store(
        renderMillis_.load(std::memory_order_relaxed) + ms,
        std::memory_order_relaxed);
    renders_.fetch_add(1, std::memory_order_relaxed);
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "cannot move ", tmp, " into place");
    pruneTraceCache(std::filesystem::path(path).parent_path().string(),
                    traceCacheCapBytes(), path);
    return path;
}

ShardedStackProfile
profileTrace(const TexelTrace &trace, const SceneLayout &layout,
             unsigned line_bytes)
{
    return profileTraceSharded(MemoryTraceSource(trace), layout,
                               line_bytes);
}

CacheStats
runCache(const TexelTrace &trace, const SceneLayout &layout,
         const CacheConfig &config)
{
    return runCacheSharded(MemoryTraceSource(trace), layout, config);
}

MissBreakdown
classifyCache(const TexelTrace &trace, const SceneLayout &layout,
              const CacheConfig &config)
{
    return classifySharded(MemoryTraceSource(trace), layout, config);
}

std::vector<CacheStats>
runFaSweep(const TexelTrace &trace, const SceneLayout &layout,
           unsigned line_bytes, const std::vector<uint64_t> &sizes)
{
    return runFaSweepSharded(MemoryTraceSource(trace), layout,
                             line_bytes, sizes);
}

std::vector<CacheStats>
runCacheSweep(const TexelTrace &trace, const SceneLayout &layout,
              const std::vector<CacheConfig> &configs)
{
    return runCacheSweepSharded(MemoryTraceSource(trace), layout,
                                configs);
}

std::vector<uint64_t>
cacheSizeSweep(uint64_t lo, uint64_t hi)
{
    std::vector<uint64_t> sizes;
    for (uint64_t s = lo; s <= hi; s <<= 1)
        sizes.push_back(s);
    return sizes;
}

uint64_t
firstWorkingSet(const std::vector<double> &rates,
                const std::vector<uint64_t> &sizes, double capture)
{
    panic_if(sizes.empty(), "empty size sweep");
    panic_if(rates.size() != sizes.size(),
             "working-set scan needs one rate per size");
    // The first significant working set is where the steep part of the
    // miss-rate curve ends: the smallest size capturing at least
    // `capture` of the achievable miss-rate reduction between the
    // smallest and largest swept caches (section 5.2.3).
    double top = rates.front();
    double floor_rate = rates.back();
    double threshold = top - capture * (top - floor_rate);
    for (size_t i = 0; i < sizes.size(); ++i) {
        if (rates[i] <= threshold)
            return sizes[i];
    }
    return sizes.back();
}

uint64_t
firstWorkingSet(const ShardedStackProfile &prof,
                const std::vector<uint64_t> &sizes, double capture)
{
    std::vector<double> rates;
    rates.reserve(sizes.size());
    for (uint64_t s : sizes)
        rates.push_back(prof.missRate(s));
    return firstWorkingSet(rates, sizes, capture);
}

} // namespace texcache
