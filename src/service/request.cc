#include "service/request.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "core/run_manifest.hh"
#include "vt/vt_memory.hh"
#include "vt/vt_sampler.hh"

namespace texcache {
namespace service {

namespace {

bool
isPow2(uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

std::string
u64str(uint64_t v)
{
    return std::to_string(v);
}

} // namespace

// --- RequestError ----------------------------------------------------

const char *
RequestError::codeName() const
{
    switch (code) {
      case Code::None:
        return "ok";
      case Code::Parse:
        return "parse_error";
      case Code::BadRequest:
        return "bad_request";
      case Code::QueueFull:
        return "queue_full";
      case Code::ShuttingDown:
        return "shutting_down";
    }
    return "unknown";
}

std::string
RequestError::toJson() const
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.kv("status", "error");
    w.kv("code", codeName());
    w.kv("message", message);
    w.endObject();
    os << "\n";
    return os.str();
}

RequestError
RequestError::parse(std::string msg)
{
    return {Code::Parse, std::move(msg)};
}

RequestError
RequestError::bad(std::string msg)
{
    return {Code::BadRequest, std::move(msg)};
}

RequestError
RequestError::queueFull(std::string msg)
{
    return {Code::QueueFull, std::move(msg)};
}

RequestError
RequestError::shuttingDown(std::string msg)
{
    return {Code::ShuttingDown, std::move(msg)};
}

// --- ServiceRequest identity -----------------------------------------

const char *
ServiceRequest::kindName() const
{
    switch (kind) {
      case Kind::Sweep:
        return "sweep";
      case Kind::Classify:
        return "classify";
      case Kind::WorkingSet:
        return "working_set";
      case Kind::VtResidency:
        return "vt_residency";
      case Kind::Ping:
        return "ping";
      case Kind::Stats:
        return "stats";
      case Kind::Metrics:
        return "metrics";
      case Kind::Profile:
        return "profile";
      case Kind::Shutdown:
        return "shutdown";
    }
    return "unknown";
}

std::string
layoutDesc(const LayoutParams &p)
{
    // Every parameter that changes addressing takes part, so two
    // requests share a batch key only when their replays are truly
    // interchangeable.
    std::ostringstream os;
    os << layoutKindName(p.kind) << "/" << p.blockW << "x" << p.blockH
       << "/pad" << p.padBlocks << "/coarse" << p.coarseBytes << "/comp"
       << p.compressionRatio << "/align" << p.baseAlign;
    return os.str();
}

std::string
ServiceRequest::batchKey() const
{
    return scene.key() + "|" + order.str() + "|" + layoutDesc(layout);
}

// --- parsing ---------------------------------------------------------

namespace {

/** Field-walking context: first error wins, unknown keys rejected. */
struct Ctx
{
    RequestError err;

    bool ok() const { return !err; }

    bool
    fail(std::string msg)
    {
        if (!err)
            err = RequestError::bad(std::move(msg));
        return false;
    }
};

bool
knownKeys(Ctx &c, const json::Value &obj, std::string_view where,
          std::initializer_list<std::string_view> keys)
{
    for (const auto &[k, v] : obj.members()) {
        (void)v;
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            return c.fail("unknown field \"" + k + "\" in " +
                          std::string(where));
    }
    return true;
}

bool
getU64(Ctx &c, const json::Value &obj, std::string_view key,
       uint64_t &out)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return true; // optional; caller keeps the default
    if (!v->isU64())
        return c.fail("\"" + std::string(key) +
                      "\" must be a non-negative integer");
    out = v->u64();
    return true;
}

bool
getUnsigned(Ctx &c, const json::Value &obj, std::string_view key,
            unsigned &out)
{
    uint64_t v = out;
    if (!getU64(c, obj, key, v))
        return false;
    if (v > 0xffffffffull)
        return c.fail("\"" + std::string(key) + "\" is out of range");
    out = static_cast<unsigned>(v);
    return true;
}

bool
getBool(Ctx &c, const json::Value &obj, std::string_view key, bool &out)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isBool())
        return c.fail("\"" + std::string(key) + "\" must be a boolean");
    out = v->boolean();
    return true;
}

bool
getDouble(Ctx &c, const json::Value &obj, std::string_view key,
          double &out)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isNumber())
        return c.fail("\"" + std::string(key) + "\" must be a number");
    out = v->number();
    return true;
}

bool
checkPow2Range(Ctx &c, std::string_view what, uint64_t v, uint64_t lo,
               uint64_t hi)
{
    if (!isPow2(v) || v < lo || v > hi)
        return c.fail(std::string(what) + " must be a power of two in [" +
                      u64str(lo) + ", " + u64str(hi) + "], got " +
                      u64str(v));
    return true;
}

bool
parseKind(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *v = root.find("kind");
    if (!v || !v->isString())
        return c.fail("\"kind\" (string) is required");
    const std::string &k = v->str();
    if (k == "sweep")
        req.kind = ServiceRequest::Kind::Sweep;
    else if (k == "classify")
        req.kind = ServiceRequest::Kind::Classify;
    else if (k == "working_set")
        req.kind = ServiceRequest::Kind::WorkingSet;
    else if (k == "vt_residency")
        req.kind = ServiceRequest::Kind::VtResidency;
    else if (k == "ping")
        req.kind = ServiceRequest::Kind::Ping;
    else if (k == "stats")
        req.kind = ServiceRequest::Kind::Stats;
    else if (k == "metrics")
        req.kind = ServiceRequest::Kind::Metrics;
    else if (k == "profile")
        req.kind = ServiceRequest::Kind::Profile;
    else if (k == "shutdown")
        req.kind = ServiceRequest::Kind::Shutdown;
    else
        return c.fail("unknown kind \"" + k +
                      "\"; expected sweep, classify, working_set, "
                      "vt_residency, ping, stats, metrics, profile "
                      "or shutdown");
    return true;
}

bool
parseName(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *v = root.find("name");
    if (!v)
        return true;
    if (!v->isString())
        return c.fail("\"name\" must be a string");
    const std::string &n = v->str();
    if (n.empty() || n.size() > 64)
        return c.fail("\"name\" must be 1..64 characters");
    for (char ch : n) {
        bool legal = (ch >= 'a' && ch <= 'z') ||
                     (ch >= 'A' && ch <= 'Z') ||
                     (ch >= '0' && ch <= '9') || ch == '_' ||
                     ch == '-' || ch == '.';
        if (!legal)
            return c.fail("\"name\" may contain only [A-Za-z0-9_.-]");
    }
    req.name = n;
    return true;
}

bool
parseScene(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *v = root.find("scene");
    if (!v || !v->isString())
        return c.fail("\"scene\" (string) is required");
    const std::string &s = v->str();
    if (s == "quad") {
        unsigned tex = 64, screen = 128;
        double repeat = 1.0;
        if (const json::Value *q = root.find("quad")) {
            if (!q->isObject())
                return c.fail("\"quad\" must be an object");
            if (!knownKeys(c, *q, "quad", {"tex", "screen", "repeat"}) ||
                !getUnsigned(c, *q, "tex", tex) ||
                !getUnsigned(c, *q, "screen", screen) ||
                !getDouble(c, *q, "repeat", repeat))
                return false;
        }
        if (!checkPow2Range(c, "quad.tex", tex, 8, 1024))
            return false;
        if (screen < 16 || screen > 2048)
            return c.fail("quad.screen must be in [16, 2048]");
        if (!(repeat > 0.0) || repeat > 64.0)
            return c.fail("quad.repeat must be in (0, 64]");
        req.scene = SceneSpec::quadScene(tex, screen,
                                         static_cast<float>(repeat));
        return true;
    }
    if (root.find("quad"))
        return c.fail("\"quad\" is only valid with scene \"quad\"");
    for (BenchScene b : allBenchScenes()) {
        if (s == benchSceneName(b)) {
            req.scene = SceneSpec(b);
            return true;
        }
    }
    return c.fail("unknown scene \"" + s +
                  "\"; expected Flight, Town, Guitar, Goblet or quad");
}

bool
parseOrder(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *v = root.find("order");
    if (!v)
        return true; // default horizontal
    auto fromDir = [&](const std::string &d, ScanDirection &out) {
        if (d == "horizontal")
            out = ScanDirection::Horizontal;
        else if (d == "vertical")
            out = ScanDirection::Vertical;
        else
            return c.fail("unknown scan direction \"" + d +
                          "\"; expected horizontal or vertical");
        return true;
    };
    if (v->isString()) {
        const std::string &s = v->str();
        if (s == "hilbert") {
            req.order = RasterOrder::hilbertOrder();
            return true;
        }
        ScanDirection dir;
        if (!fromDir(s, dir))
            return false;
        req.order.dir = dir;
        return true;
    }
    if (!v->isObject())
        return c.fail("\"order\" must be a string or an object");
    if (!knownKeys(c, *v, "order",
                   {"dir", "tiled", "tile_w", "tile_h", "hilbert"}))
        return false;
    RasterOrder o;
    if (const json::Value *d = v->find("dir")) {
        if (!d->isString())
            return c.fail("order.dir must be a string");
        if (!fromDir(d->str(), o.dir))
            return false;
    }
    o.tileW = 8;
    o.tileH = 8;
    if (!getBool(c, *v, "tiled", o.tiled) ||
        !getBool(c, *v, "hilbert", o.hilbert) ||
        !getUnsigned(c, *v, "tile_w", o.tileW) ||
        !getUnsigned(c, *v, "tile_h", o.tileH))
        return false;
    if (o.tiled) {
        if (!checkPow2Range(c, "order.tile_w", o.tileW, 2, 256) ||
            !checkPow2Range(c, "order.tile_h", o.tileH, 2, 256))
            return false;
    } else {
        o.tileW = 0;
        o.tileH = 0;
    }
    req.order = o;
    return true;
}

bool
parseLayout(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *v = root.find("layout");
    if (!v)
        return true; // default nonblocked
    if (!v->isObject())
        return c.fail("\"layout\" must be an object");
    if (!knownKeys(c, *v, "layout",
                   {"kind", "block_w", "block_h", "pad_blocks",
                    "coarse_bytes", "compression", "base_align"}))
        return false;
    LayoutParams p;
    if (const json::Value *k = v->find("kind")) {
        if (!k->isString())
            return c.fail("layout.kind must be a string");
        const std::string &s = k->str();
        if (s == "williams")
            p.kind = LayoutKind::Williams;
        else if (s == "nonblocked")
            p.kind = LayoutKind::Nonblocked;
        else if (s == "blocked")
            p.kind = LayoutKind::Blocked;
        else if (s == "padded")
            p.kind = LayoutKind::PaddedBlocked;
        else if (s == "blocked6d")
            p.kind = LayoutKind::Blocked6D;
        else if (s == "compressed")
            p.kind = LayoutKind::CompressedBlocked;
        else
            return c.fail("unknown layout kind \"" + s +
                          "\"; expected williams, nonblocked, blocked, "
                          "padded, blocked6d or compressed");
    }
    uint64_t coarse = p.coarseBytes, align = p.baseAlign;
    if (!getUnsigned(c, *v, "block_w", p.blockW) ||
        !getUnsigned(c, *v, "block_h", p.blockH) ||
        !getUnsigned(c, *v, "pad_blocks", p.padBlocks) ||
        !getU64(c, *v, "coarse_bytes", coarse) ||
        !getUnsigned(c, *v, "compression", p.compressionRatio) ||
        !getU64(c, *v, "base_align", align))
        return false;
    p.coarseBytes = coarse;
    p.baseAlign = align;
    if (!checkPow2Range(c, "layout.block_w", p.blockW, 1, 64) ||
        !checkPow2Range(c, "layout.block_h", p.blockH, 1, 64) ||
        !checkPow2Range(c, "layout.pad_blocks", p.padBlocks, 1, 64) ||
        !checkPow2Range(c, "layout.coarse_bytes", p.coarseBytes,
                        1 << 10, 1 << 20) ||
        !checkPow2Range(c, "layout.compression", p.compressionRatio, 2,
                        16) ||
        !checkPow2Range(c, "layout.base_align", p.baseAlign, 1,
                        1 << 20))
        return false;
    req.layout = p;
    return true;
}

bool
checkConfig(Ctx &c, const CacheConfig &cfg)
{
    if (!checkPow2Range(c, "config.line", cfg.lineBytes, 4, 1024))
        return false;
    if (!checkPow2Range(c, "config.size", cfg.sizeBytes, cfg.lineBytes,
                        16ull << 20))
        return false;
    if (cfg.assoc != CacheConfig::kFullyAssoc) {
        if (!isPow2(cfg.assoc) || cfg.assoc > cfg.numLines())
            return c.fail("config.assoc must be 0 (fully associative) "
                          "or a power of two <= lines (" +
                          u64str(cfg.numLines()) + "), got " +
                          u64str(cfg.assoc));
    }
    return true;
}

bool
parseConfigs(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *list = root.find("configs");
    const json::Value *product = root.find("sweep");
    if (req.kind == ServiceRequest::Kind::VtResidency) {
        if (list || product)
            return c.fail("vt_residency takes \"vt\" parameters, not "
                          "configs");
        return true;
    }
    if ((list != nullptr) == (product != nullptr))
        return c.fail("exactly one of \"configs\" or \"sweep\" is "
                      "required");

    constexpr size_t kMaxConfigs = 256;
    if (list) {
        if (!list->isArray() || list->size() == 0)
            return c.fail("\"configs\" must be a non-empty array");
        if (list->size() > kMaxConfigs)
            return c.fail("\"configs\" is limited to " +
                          u64str(kMaxConfigs) + " entries");
        for (size_t i = 0; i < list->size(); ++i) {
            const json::Value &e = list->at(i);
            if (!e.isObject())
                return c.fail("configs[" + u64str(i) +
                              "] must be an object");
            if (!knownKeys(c, e, "configs[]", {"size", "line", "assoc"}))
                return false;
            CacheConfig cfg;
            cfg.assoc = CacheConfig::kFullyAssoc;
            uint64_t size = 0;
            if (!getU64(c, e, "size", size))
                return false;
            if (!size)
                return c.fail("configs[" + u64str(i) +
                              "].size is required");
            cfg.sizeBytes = size;
            cfg.lineBytes = 32;
            if (!getUnsigned(c, e, "line", cfg.lineBytes) ||
                !getUnsigned(c, e, "assoc", cfg.assoc))
                return false;
            if (!checkConfig(c, cfg))
                return false;
            req.configs.push_back(cfg);
        }
    } else {
        if (!product->isObject())
            return c.fail("\"sweep\" must be an object");
        if (!knownKeys(c, *product, "sweep",
                       {"sizes", "lines", "assocs"}))
            return false;
        auto readList = [&](std::string_view key, bool required,
                            std::vector<uint64_t> &out) {
            const json::Value *a = product->find(key);
            if (!a) {
                if (required)
                    return c.fail("sweep." + std::string(key) +
                                  " is required");
                return true;
            }
            if (!a->isArray() || a->size() == 0)
                return c.fail("sweep." + std::string(key) +
                              " must be a non-empty array");
            for (size_t i = 0; i < a->size(); ++i) {
                if (!a->at(i).isU64())
                    return c.fail("sweep." + std::string(key) +
                                  " entries must be non-negative "
                                  "integers");
                out.push_back(a->at(i).u64());
            }
            return true;
        };
        std::vector<uint64_t> sizes, lines{32}, assocs{0};
        if (!readList("sizes", true, sizes))
            return false;
        lines.clear();
        assocs.clear();
        if (!readList("lines", false, lines) ||
            !readList("assocs", false, assocs))
            return false;
        if (lines.empty())
            lines.push_back(32);
        if (assocs.empty())
            assocs.push_back(CacheConfig::kFullyAssoc);
        // Deterministic product order: lines, then assocs, then sizes
        // (matches how the figure sweeps iterate).
        if (lines.size() * assocs.size() * sizes.size() > kMaxConfigs)
            return c.fail("sweep product is limited to " +
                          u64str(kMaxConfigs) + " configurations");
        for (uint64_t line : lines) {
            for (uint64_t assoc : assocs) {
                for (uint64_t size : sizes) {
                    CacheConfig cfg;
                    cfg.sizeBytes = size;
                    if (line > 0xffffffffull || assoc > 0xffffffffull)
                        return c.fail("sweep.lines/assocs entries are "
                                      "out of range");
                    cfg.lineBytes = static_cast<unsigned>(line);
                    cfg.assoc = static_cast<unsigned>(assoc);
                    if (!checkConfig(c, cfg))
                        return false;
                    req.configs.push_back(cfg);
                }
            }
        }
    }

    if (req.kind == ServiceRequest::Kind::Classify &&
        req.configs.size() != 1)
        return c.fail("classify takes exactly one configuration");
    if (req.kind == ServiceRequest::Kind::WorkingSet) {
        for (const CacheConfig &cfg : req.configs) {
            if (cfg.assoc != CacheConfig::kFullyAssoc ||
                cfg.lineBytes != req.configs[0].lineBytes)
                return c.fail("working_set needs fully associative "
                              "configs sharing one line size");
        }
    }
    return true;
}

bool
parseVt(Ctx &c, const json::Value &root, ServiceRequest &req)
{
    const json::Value *v = root.find("vt");
    if (req.kind != ServiceRequest::Kind::VtResidency) {
        if (v)
            return c.fail("\"vt\" is only valid with kind "
                          "vt_residency");
        return true;
    }
    if (v) {
        if (!v->isObject())
            return c.fail("\"vt\" must be an object");
        if (!knownKeys(c, *v, "vt", {"page", "pool", "warm"}))
            return false;
        uint64_t pool = req.vtPoolBytes;
        if (!getUnsigned(c, *v, "page", req.vtPageBytes) ||
            !getU64(c, *v, "pool", pool) ||
            !getBool(c, *v, "warm", req.vtWarm))
            return false;
        req.vtPoolBytes = pool;
    }
    if (!checkPow2Range(c, "vt.page", req.vtPageBytes, 4 << 10,
                        1 << 20))
        return false;
    if (req.vtPoolBytes < req.vtPageBytes ||
        req.vtPoolBytes > (512ull << 20))
        return c.fail("vt.pool must be in [vt.page, 512MB]");
    return true;
}

} // namespace

RequestError
parseRequest(std::string_view body, ServiceRequest &out)
{
    constexpr size_t kMaxBody = 1 << 20;
    if (body.size() > kMaxBody)
        return RequestError::parse("request body exceeds 1MB");

    json::Value root;
    json::ParseError jerr;
    if (!json::parse(body, root, jerr)) {
        return RequestError::parse(
            std::string(jerr.code()) + " at byte " +
            std::to_string(jerr.offset) + ": " + jerr.message);
    }
    if (!root.isObject())
        return RequestError::bad("request must be a JSON object");

    out = ServiceRequest();
    Ctx c;
    if (!parseKind(c, root, out))
        return c.err;
    if (out.control()) {
        knownKeys(c, root, "request", {"kind", "name"});
        parseName(c, root, out);
        return c.err;
    }
    if (!knownKeys(c, root, "request",
                   {"kind", "name", "scene", "quad", "order", "layout",
                    "configs", "sweep", "capture", "vt"}))
        return c.err;
    parseName(c, root, out) && parseScene(c, root, out) &&
        parseOrder(c, root, out) && parseLayout(c, root, out) &&
        parseConfigs(c, root, out) && parseVt(c, root, out);
    if (c.ok()) {
        if (!getDouble(c, root, "capture", out.capture))
            return c.err;
        if (out.kind != ServiceRequest::Kind::WorkingSet &&
            root.find("capture"))
            return c.err = RequestError::bad(
                       "\"capture\" is only valid with working_set"),
                   c.err;
        if (!(out.capture > 0.0) || out.capture > 1.0)
            return c.err = RequestError::bad(
                       "\"capture\" must be in (0, 1]"),
                   c.err;
    }
    return c.err;
}

// --- execution / manifest builders -----------------------------------

namespace {

/** Shared manifest preamble: identity + request echo rows. */
RunManifest
baseManifest(const ServiceRequest &req)
{
    RunManifest m(req.name);
    m.setDeterministic(true);
    m.setScene(req.scene.key());
    m.config("kind", std::string(req.kindName()));
    m.config("order", req.order.str());
    m.config("layout", layoutDesc(req.layout));
    return m;
}

/** Per-config result subtree: results.cfg_<i>.{accesses,misses,...}. */
void
exportConfigStats(stats::Group &results, size_t i,
                  const CacheStats &s)
{
    stats::Group &g = results.group("cfg_" + std::to_string(i));
    g.constant("accesses", s.accesses);
    g.constant("misses", s.misses);
    g.constant("cold_misses", s.coldMisses);
    g.constant("evictions", s.evictions);
    g.real("miss_rate", s.missRate());
}

std::string
buildClassifyManifest(const ServiceRequest &req,
                      const MissBreakdown &b)
{
    RunManifest m = baseManifest(req);
    m.config("cfg", req.configs[0].str());
    m.metric("accesses", double(b.accesses), "exact");
    m.metric("misses", double(b.misses), "exact");
    m.metric("cold", double(b.cold), "exact");
    m.metric("capacity", double(b.capacity), "exact");
    m.metric("conflict", double(b.conflict), "exact");
    stats::Group root;
    stats::Group &g = root.group("classify");
    g.constant("accesses", b.accesses);
    g.constant("misses", b.misses);
    g.constant("cold", b.cold);
    g.constant("capacity", b.capacity);
    g.constant("conflict", b.conflict);
    g.real("miss_rate", b.missRate());
    return m.toString(&root);
}

std::string
buildWorkingSetManifest(const ServiceRequest &req,
                        const std::vector<CacheStats> &stats)
{
    std::vector<double> rates;
    std::vector<uint64_t> sizes;
    for (size_t i = 0; i < stats.size(); ++i) {
        rates.push_back(stats[i].missRate());
        sizes.push_back(req.configs[i].sizeBytes);
    }
    uint64_t ws = firstWorkingSet(rates, sizes, req.capture);

    RunManifest m = baseManifest(req);
    m.config("line_bytes", uint64_t(req.configs[0].lineBytes));
    m.config("capture", req.capture);
    m.config("configs", uint64_t(req.configs.size()));
    m.metric("first_working_set_bytes", double(ws), "exact");
    m.metric("configs", double(req.configs.size()), "exact");
    stats::Group root;
    stats::Group &results = root.group("results");
    for (size_t i = 0; i < stats.size(); ++i)
        exportConfigStats(results, i, stats[i]);
    return m.toString(&root);
}

std::string
buildVtManifest(const ServiceRequest &req, const DegradationStats &deg,
                const FetchQueueStats &fq, const PagePoolStats &pool)
{
    RunManifest m = baseManifest(req);
    m.config("page_bytes", uint64_t(req.vtPageBytes));
    m.config("pool_bytes", req.vtPoolBytes);
    m.config("warm", std::string(req.vtWarm ? "true" : "false"));
    m.metric("degraded_fraction", deg.degradedFraction(), "exact");
    m.metric("fetches_issued", double(fq.issued), "exact");
    m.metric("fetch_drops", double(fq.drops), "exact");
    m.metric("pool_evictions", double(pool.evictions), "exact");
    stats::Group root;
    stats::Group &g = root.group("vt");
    g.real("degraded_fraction", deg.degradedFraction());
    g.real("avg_delta", deg.avgDelta());
    g.constant("max_delta", deg.maxDelta());
    g.constant("fetches_issued", fq.issued);
    g.constant("fetch_dedup_hits", fq.dedupHits);
    g.constant("fetch_drops", fq.drops);
    g.constant("pool_evictions", pool.evictions);
    g.real("pool_hit_rate", pool.hitRate());
    g.constant("resident_high_water", pool.residentHighWater);
    return m.toString(&root);
}

std::string
runVtResidency(TraceStore &store, const ServiceRequest &req)
{
    const Scene &scene = store.scene(req.scene);
    SceneLayout layout(scene, req.layout);

    VtConfig cfg;
    cfg.pageBytes = req.vtPageBytes;
    cfg.poolPages = req.vtPoolBytes / req.vtPageBytes;
    // The pool must at least hold every texture's pinned fallback
    // level plus in-flight fills (same floor the residency ablation
    // bench applies).
    uint64_t floor = scene.textures.size() + cfg.maxInFlight;
    if (cfg.poolPages < floor)
        cfg.poolPages = floor;

    VirtualTextureMemory mem(cfg);
    VtSampler vt(layout, mem);
    if (req.vtWarm)
        vt.prefaultAll();

    RenderOptions opts;
    opts.captureTrace = false;
    opts.writeFramebuffer = false;
    opts.vtResolve = vt.hook();
    render(scene, req.order, opts);

    return buildVtManifest(req, vt.degradation(),
                           mem.fetchQueue().stats(),
                           mem.pool().stats());
}

} // namespace

std::string
buildSweepManifest(const ServiceRequest &req,
                   const std::vector<CacheStats> &stats)
{
    uint64_t accesses = 0, misses = 0;
    for (const CacheStats &s : stats) {
        accesses += s.accesses;
        misses += s.misses;
    }
    RunManifest m = baseManifest(req);
    m.config("configs", uint64_t(req.configs.size()));
    for (size_t i = 0; i < req.configs.size(); ++i)
        m.config("cfg_" + std::to_string(i), req.configs[i].str());
    m.metric("configs", double(req.configs.size()), "exact");
    m.metric("accesses", double(accesses), "exact");
    m.metric("misses", double(misses), "exact");
    stats::Group root;
    stats::Group &results = root.group("results");
    for (size_t i = 0; i < stats.size(); ++i)
        exportConfigStats(results, i, stats[i]);
    return m.toString(&root);
}

std::string
runServiceRequest(TraceStore &store, const ServiceRequest &req)
{
    panic_if(req.control(), "control request reached the runner");
    if (req.kind == ServiceRequest::Kind::VtResidency)
        return runVtResidency(store, req);

    const TexelTrace &trace = store.trace(req.scene, req.order);
    SceneLayout layout(store.scene(req.scene), req.layout);

    switch (req.kind) {
      case ServiceRequest::Kind::Sweep:
        return buildSweepManifest(
            req, runCacheSweep(trace, layout, req.configs));
      case ServiceRequest::Kind::Classify:
        return buildClassifyManifest(
            req, classifyCache(trace, layout, req.configs[0]));
      case ServiceRequest::Kind::WorkingSet:
        return buildWorkingSetManifest(
            req, runCacheSweep(trace, layout, req.configs));
      default:
        panic("unreachable request kind");
    }
}

} // namespace service
} // namespace texcache
