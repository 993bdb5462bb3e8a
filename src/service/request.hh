/**
 * @file
 * texcached request model: the wire schema, its validation registry,
 * and the uniform ServiceRequest -> manifest runner.
 *
 * Every runnable the harness has - single cache sims, grouped
 * set-associative families, exact FA capacity sweeps, 3-C miss
 * classification, working-set scans, VT residency ablations - is
 * reachable through one typed request:
 *
 *   {
 *     "kind":  "sweep" | "classify" | "working_set" | "vt_residency"
 *              | "ping" | "stats" | "metrics" | "shutdown",
 *     "name":  "my-run",                  // manifest bench name
 *     "scene": "Flight" | ... | "quad",
 *     "quad":  {"tex": 64, "screen": 256, "repeat": 4},
 *     "order": "horizontal" | "vertical" | "hilbert"
 *              | {"dir": "...", "tiled": true, "tile_w": 8, ...},
 *     "layout": {"kind": "blocked", "block_w": 4, "block_h": 4, ...},
 *     "configs": [{"size": 32768, "line": 64, "assoc": 2}, ...],
 *     "sweep":   {"sizes": [...], "lines": [...], "assocs": [...]},
 *     "capture": 0.9,                     // working_set only
 *     "vt":      {"page": 65536, "pool": 4194304, "warm": false}
 *   }
 *
 * Parsing validates every field against the experiment registry
 * (known scenes, layout kinds, raster orders, power-of-two and range
 * constraints on cache geometry) and returns typed errors - a daemon
 * fed a hostile request must answer with a structured refusal, never
 * panic. Anything that would trip a panic_if/fatal deeper in the
 * stack is rejected here.
 *
 * runServiceRequest() is the library-level execution path: pure
 * request -> deterministic manifest string (texcache-bench-1 schema,
 * RunManifest::setDeterministic), no stdout or exit side effects.
 * The batch-CLI benches, the service engine's batched dispatch and
 * the load driver's reference computation all share the manifest
 * builders, which is what makes response-vs-CLI byte-identity checks
 * meaningful.
 */

#ifndef TEXCACHE_SERVICE_REQUEST_HH
#define TEXCACHE_SERVICE_REQUEST_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"

namespace texcache {
namespace service {

/** Typed request-level error (wire code + human message). */
struct RequestError
{
    enum class Code
    {
        None,
        Parse,       ///< request body is not valid JSON
        BadRequest,  ///< valid JSON, invalid against the registry
        QueueFull,   ///< admission control rejected the request
        ShuttingDown, ///< daemon is draining; no new work accepted
    };

    Code code = Code::None;
    std::string message;

    explicit operator bool() const { return code != Code::None; }

    /** Stable wire identifier ("parse_error", "queue_full", ...). */
    const char *codeName() const;

    /** One-line JSON error body ({"status":"error",...}). */
    std::string toJson() const;

    static RequestError parse(std::string msg);
    static RequestError bad(std::string msg);
    static RequestError queueFull(std::string msg);
    static RequestError shuttingDown(std::string msg);
};

/** One validated service request. */
struct ServiceRequest
{
    enum class Kind
    {
        Sweep,       ///< cache stats for a config list (shared replay)
        Classify,    ///< 3-C miss breakdown for one config
        WorkingSet,  ///< first significant working set over an FA sweep
        VtResidency, ///< virtual-texturing residency render
        Ping,        ///< control: liveness probe
        Stats,       ///< control: dump the service stats tree
        Metrics,     ///< control: Prometheus exposition snapshot
        Profile,     ///< control: per-request CPU profile slice
        Shutdown,    ///< control: drain and exit
    };

    Kind kind = Kind::Sweep;
    std::string name = "texcached"; ///< manifest bench field
    SceneSpec scene;
    RasterOrder order;
    LayoutParams layout;
    std::vector<CacheConfig> configs;
    double capture = 0.85;  ///< working_set capture fraction

    // vt_residency parameters
    unsigned vtPageBytes = 64 * 1024;
    uint64_t vtPoolBytes = 4 << 20;
    bool vtWarm = false;

    /** Control requests bypass the queue and simulation entirely. */
    bool
    control() const
    {
        return kind == Kind::Ping || kind == Kind::Stats ||
               kind == Kind::Metrics || kind == Kind::Profile ||
               kind == Kind::Shutdown;
    }

    /** Sweep requests over the same replay coalesce into one batch. */
    bool batchable() const { return kind == Kind::Sweep; }

    /**
     * Requests with equal batch keys simulate the same (scene, order,
     * layout) replay and fold into one runCacheSweep call.
     */
    std::string batchKey() const;

    const char *kindName() const;
};

/** Deterministic full-parameter layout identity string. */
std::string layoutDesc(const LayoutParams &p);

/**
 * Parse and validate one request body. Returns a None-code error on
 * success; Parse/BadRequest errors name the offending field and, for
 * registry misses, the legal values.
 */
RequestError parseRequest(std::string_view body, ServiceRequest &out);

/**
 * Execute one non-control request against @p store and return the
 * deterministic texcache-bench-1 manifest JSON. This is the direct
 * (unbatched) path; the engine reproduces it config-for-config when
 * it folds compatible requests into one shared replay.
 */
std::string runServiceRequest(TraceStore &store,
                              const ServiceRequest &req);

/**
 * Render a sweep request's manifest from per-config results aligned
 * with req.configs (the piece the batched path shares with the
 * direct one).
 */
std::string buildSweepManifest(const ServiceRequest &req,
                               const std::vector<CacheStats> &stats);

} // namespace service
} // namespace texcache

#endif // TEXCACHE_SERVICE_REQUEST_HH
