/**
 * @file
 * Sharded single-simulation replay at scale: a billion texel accesses
 * streamed from a chunked on-disk trace through the sharded runners
 * (core/shard_replay.hh) without ever materializing the trace.
 *
 * Three stages, then one gated manifest (BENCH_shard_sim.json):
 *
 *  1. Identity: on a small scene, every runner at several shard
 *     counts is asserted field-identical to the same runner at one
 *     shard, from memory and from a spilled chunked file (the deep
 *     property sweep against the plain simulators lives in
 *     tests/test_shard_sim.cc; these asserts keep the bench honest
 *     before it times anything).
 *  2. Speedup: a composite workload (FA capacity sweep + a
 *     set-associative family) over a slice of the big trace, serial
 *     (shards=1) versus sharded (shards=worker count), byte-identity
 *     asserted between the two. Both halves decode the stream once
 *     and split the simulation: the FA half into time segments, the
 *     set-associative half into per-shard set buckets. shard_speedup
 *     is wall/wall; CI gates the fresh composite and set-associative
 *     values by core count (the committed baseline may come from a
 *     small box, so they are "report" there).
 *  3. Scale: the full logical stream - frame-replicated to
 *     --target-accesses (TEXCACHE_SHARD_TARGET, default 10^9) - drives
 *     one FA sweep pass and one set-associative replay. Peak RSS is
 *     asserted below the materialized trace size and gated as a
 *     "ceiling" metric.
 *
 * --smoke replays a reduced stream under a small-RAM budget (CI runs
 * it under ulimit -v): the streamed path must complete where
 * --materialize - which honestly builds the whole logical trace in
 * memory - must die. Smoke mode writes no manifest.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_util.hh"
#include "cache/cache_sim.hh"
#include "cache/stack_dist.hh"
#include "cache/three_c.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/shard_replay.hh"
#include "core/sweep.hh"
#include "trace/chunked_trace.hh"
#include "trace/trace_source.hh"

using namespace texcache;

namespace {

uint64_t
peakRssBytes()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in KiB.
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
expectEqual(const CacheStats &a, const CacheStats &b, const char *what)
{
    panic_if(a.accesses != b.accesses || a.misses != b.misses ||
                 a.coldMisses != b.coldMisses ||
                 a.evictions != b.evictions,
             "sharded replay diverged from one shard: ", what,
             " (accesses ", a.accesses, "/", b.accesses, ", misses ",
             a.misses, "/", b.misses, ", cold ", a.coldMisses, "/",
             b.coldMisses, ", evictions ", a.evictions, "/",
             b.evictions, ")");
}

/** The big canonical scene: ~33.5M records per rendered frame. */
SceneSpec
bigSpec()
{
    return SceneSpec::quadScene(1024, 2048, 4.0f);
}

SceneSpec
smallSpec()
{
    return SceneSpec::quadScene(256, 512, 4.0f);
}

LayoutParams
nonblocked()
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    return p;
}

struct Options
{
    uint64_t targetAccesses = 1000000000ull;
    bool targetIsDefault = true;
    unsigned shards = 0; ///< 0 = derived from the stream
    std::string dir;     ///< trace directory ("" = env or temp)
    uint64_t speedupFrames = 0; ///< 0 = derived from target
    bool smoke = false;
    uint64_t smokeRecords = 200000000ull;
    bool materialize = false;
};

uint64_t
parseCount(const std::string &arg, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(arg.c_str(), &end);
    fatal_if(end == arg.c_str() || *end || v < 0,
             flag, "='", arg, "' is not a count");
    return static_cast<uint64_t>(v);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    if (const char *env = std::getenv("TEXCACHE_SHARD_TARGET");
        env && *env) {
        o.targetAccesses = parseCount(env, "TEXCACHE_SHARD_TARGET");
        o.targetIsDefault = false;
    }
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *pfx) -> std::string {
            return a.substr(std::strlen(pfx));
        };
        if (a.rfind("--target-accesses=", 0) == 0) {
            o.targetAccesses =
                parseCount(val("--target-accesses="), "--target-accesses");
            o.targetIsDefault = false;
        } else if (a.rfind("--shards=", 0) == 0) {
            o.shards = static_cast<unsigned>(
                parseCount(val("--shards="), "--shards"));
        } else if (a.rfind("--dir=", 0) == 0) {
            o.dir = val("--dir=");
        } else if (a.rfind("--speedup-frames=", 0) == 0) {
            o.speedupFrames = parseCount(val("--speedup-frames="),
                                         "--speedup-frames");
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a.rfind("--smoke=", 0) == 0) {
            o.smoke = true;
            o.smokeRecords = parseCount(val("--smoke="), "--smoke");
        } else if (a == "--materialize") {
            o.materialize = true;
        } else {
            fatal("unknown flag '", a,
                  "' (known: --target-accesses=N --shards=N --dir=D "
                  "--speedup-frames=N --smoke[=N] --materialize)");
        }
    }
    return o;
}

/** Directory for spilled traces; created under tmp when unconfigured. */
std::string
traceDir(Options &o, bool &created)
{
    created = false;
    if (!o.dir.empty())
        return o.dir;
    if (const char *env = std::getenv("TEXCACHE_TRACE_CACHE_DIR");
        env && *env)
        return env;
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "texcache-shard-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    fatal_if(!mkdtemp(buf.data()), "mkdtemp failed for ", tmpl);
    created = true;
    return buf.data();
}

/**
 * Stage 1: shards = S equals shards = 1 on a small scene, several S,
 * memory and file sources. panic()s on any divergence.
 */
void
identityChecks(const std::string &dir, std::vector<uint64_t> &faSizes)
{
    SceneSpec spec = smallSpec();
    RasterOrder order = RasterOrder::horizontal();
    const TexelTrace &trace = benchutil::store().trace(spec, order);
    Scene scene = spec.build();
    SceneLayout layout(scene, nonblocked());

    std::vector<CacheConfig> configs;
    for (uint64_t size : {16u << 10, 64u << 10})
        for (unsigned line : {32u, 64u})
            for (unsigned assoc : {1u, 4u, CacheConfig::kFullyAssoc})
                configs.push_back({size, line, assoc});

    MemoryTraceSource mem(trace);
    std::vector<CacheStats> serial =
        runCacheSweepSharded(mem, layout, configs, 1);
    for (unsigned shards : {2u, 3u, 5u, 8u}) {
        std::vector<CacheStats> sharded =
            runCacheSweepSharded(mem, layout, configs, shards);
        for (size_t i = 0; i < configs.size(); ++i)
            expectEqual(sharded[i], serial[i], configs[i].str().c_str());
    }

    // Single replay + 3-C classification identity.
    CacheConfig one{64 << 10, 64, 2};
    expectEqual(runCacheSharded(mem, layout, one, 3),
                runCacheSharded(mem, layout, one, 1), "single replay");
    MissBreakdown bs = classifySharded(mem, layout, one, 3);
    MissBreakdown br = classifySharded(mem, layout, one, 1);
    panic_if(bs.accesses != br.accesses || bs.misses != br.misses ||
                 bs.cold != br.cold || bs.capacity != br.capacity ||
                 bs.conflict != br.conflict,
             "sharded 3-C classification diverged from one shard");

    // FA profile identity at every size.
    ShardedStackProfile prof = profileTraceSharded(mem, layout, 64, 1);
    ShardedStackProfile sprof = profileTraceSharded(mem, layout, 64, 4);
    panic_if(sprof.accesses != prof.accesses || sprof.cold != prof.cold,
             "sharded stack profile diverged (accesses/cold)");
    for (uint64_t size : faSizes)
        panic_if(sprof.misses(size) != prof.misses(size),
                 "sharded stack profile diverged at ", size, " bytes");

    // The spilled chunked file must replay to the same bytes.
    std::string path =
        benchutil::store().spillTrace(spec, order, dir);
    FileTraceSource file(path);
    panic_if(file.records() != trace.size(),
             "spilled trace has ", file.records(), " records, render ",
             trace.size());
    std::vector<CacheStats> fromFile =
        runCacheSweepSharded(file, layout, configs, 3);
    for (size_t i = 0; i < configs.size(); ++i)
        expectEqual(fromFile[i], serial[i], "file replay");

    // Frame replication == the concatenated trace.
    TexelTrace twice;
    twice.reserve(trace.size() * 2);
    twice.appendPacked(trace.packed().data(), trace.size());
    twice.appendPacked(trace.packed().data(), trace.size());
    MemoryTraceSource mem2(trace, 2);
    std::vector<CacheStats> serial2 =
        runCacheSweepSharded(MemoryTraceSource(twice), layout, configs, 1);
    std::vector<CacheStats> sharded2 =
        runCacheSweepSharded(mem2, layout, configs, 3);
    for (size_t i = 0; i < configs.size(); ++i)
        expectEqual(sharded2[i], serial2[i], "frame replication");

    std::cout << "identity: shards=S == shards=1 for "
              << configs.size() << " configs x {2,3,5,8} shards, "
              << "3-C, FA profile, spilled file, frame replication\n";
}

struct SpeedupResult
{
    double serialMs = 0.0;
    double shardedMs = 0.0;
    double faSerialMs = 0.0;
    double faShardedMs = 0.0;
    double saSerialMs = 0.0;
    double saShardedMs = 0.0;
    uint64_t accesses = 0;
};

/**
 * Stage 2: the composite figure-style workload, serial vs sharded.
 * Neither half replicates decode: the FA half maps each time segment
 * once, and the set-associative half maps each chunk once and
 * scatters it so every shard simulates only its own sets. Both scale
 * with workers until memory bandwidth or the serial merge caps them.
 * The composite is what real sweep passes look like, and is the
 * headline shard_speedup.
 */
SpeedupResult
measureSpeedup(const std::string &path, const SceneLayout &layout,
               uint64_t frames, unsigned shards,
               const std::vector<uint64_t> &faSizes)
{
    FileTraceSource src(path, frames);
    std::vector<CacheConfig> family;
    for (uint64_t size : {32u << 10, 128u << 10})
        for (unsigned assoc : {1u, 2u, 4u})
            family.push_back({size, 64, assoc});

    SpeedupResult r;
    r.accesses = src.records() * (1 + family.size());

    auto t0 = std::chrono::steady_clock::now();
    auto faSerial = runFaSweepSharded(src, layout, 64, faSizes, 1);
    r.faSerialMs = millisSince(t0);
    t0 = std::chrono::steady_clock::now();
    auto saSerial = runCacheSweepSharded(src, layout, family, 1);
    r.saSerialMs = millisSince(t0);
    r.serialMs = r.faSerialMs + r.saSerialMs;

    t0 = std::chrono::steady_clock::now();
    auto faSharded =
        runFaSweepSharded(src, layout, 64, faSizes, shards);
    r.faShardedMs = millisSince(t0);
    t0 = std::chrono::steady_clock::now();
    auto saSharded =
        runCacheSweepSharded(src, layout, family, shards);
    r.saShardedMs = millisSince(t0);
    r.shardedMs = r.faShardedMs + r.saShardedMs;

    for (size_t i = 0; i < faSizes.size(); ++i)
        expectEqual(faSharded[i], faSerial[i], "speedup FA sweep");
    for (size_t i = 0; i < family.size(); ++i)
        expectEqual(saSharded[i], saSerial[i], family[i].str().c_str());
    return r;
}

int
runSmoke(Options &o)
{
    bool createdDir = false;
    std::string dir = traceDir(o, createdDir);
    SceneSpec spec = smallSpec();
    RasterOrder order = RasterOrder::horizontal();
    std::string path = benchutil::store().spillTrace(spec, order, dir);

    ChunkedTraceFile f = ChunkedTraceFile::mustOpen(path);
    uint64_t perFrame = f.info().records;
    uint64_t frames =
        std::max<uint64_t>(1, (o.smokeRecords + perFrame - 1) / perFrame);
    uint64_t materializedBytes = frames * perFrame * sizeof(uint64_t);
    Scene scene = spec.build();
    SceneLayout layout(scene, nonblocked());

    if (o.materialize) {
        // The honest non-streamed path: build the entire logical
        // trace in memory, then profile it. Under the CI smoke's
        // ulimit -v this allocation must die - that is the point.
        std::cout << "materializing " << frames * perFrame
                  << " records (" << materializedBytes / (1 << 20)
                  << " MiB)...\n";
        TexelTrace whole = f.readAll();
        TexelTrace big;
        big.reserve(frames * perFrame);
        for (uint64_t i = 0; i < frames; ++i)
            big.appendPacked(whole.packed().data(), whole.size());
        ShardedStackProfile prof = profileTrace(big, layout, 64);
        std::cout << "materialized profile: "
                  << prof.misses(64 << 10) << " misses @64KB, peak rss "
                  << peakRssBytes() / (1 << 20) << " MiB\n";
        return 0;
    }

    auto t0 = std::chrono::steady_clock::now();
    FileTraceSource src(path, frames);
    ShardedStackProfile prof =
        profileTraceSharded(src, layout, 64, o.shards);
    double ms = millisSince(t0);
    uint64_t rss = peakRssBytes();
    panic_if(prof.accesses != frames * perFrame,
             "smoke profiled ", prof.accesses, " of ",
             frames * perFrame, " accesses");
    panic_if(rss >= materializedBytes,
             "streamed smoke peak rss ", rss,
             " not below materialized trace size ", materializedBytes);
    std::cout << "smoke ok: streamed " << prof.accesses
              << " accesses in " << fmtFixed(ms, 0) << " ms ("
              << prof.misses(64 << 10) << " misses @64KB), peak rss "
              << rss / (1 << 20) << " MiB < materialized "
              << materializedBytes / (1 << 20) << " MiB\n";
    if (createdDir)
        std::filesystem::remove_all(dir);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    if (o.smoke)
        return runSmoke(o);

    bool createdDir = false;
    std::string dir = traceDir(o, createdDir);
    std::vector<uint64_t> faSizes = cacheSizeSweep(16 << 10, 8 << 20);

    identityChecks(dir, faSizes);

    // Spill the big canonical frame once (timed as trace generation in
    // the manifest's trace_gen block, like every bench render).
    SceneSpec spec = bigSpec();
    RasterOrder order = RasterOrder::horizontal();
    std::string path = benchutil::store().spillTrace(spec, order, dir);
    uint64_t perFrame = ChunkedTraceFile::mustOpen(path).info().records;
    uint64_t frames = std::max<uint64_t>(
        1, (o.targetAccesses + perFrame - 1) / perFrame);

    // Stage 2: speedup over a slice of the stream.
    uint64_t speedupFrames =
        o.speedupFrames
            ? o.speedupFrames
            : std::max<uint64_t>(1, std::min<uint64_t>(6, frames / 5));
    unsigned shards = resolveShards(o.shards, speedupFrames * perFrame);
    SpeedupResult sp =
        measureSpeedup(path, SceneLayout(spec.build(), nonblocked()),
                       speedupFrames, shards, faSizes);

    // Stage 3: the full logical stream, streamed end to end.
    Scene scene = spec.build();
    SceneLayout layout(scene, nonblocked());
    FileTraceSource full(path, frames);
    CacheConfig saCfg{128 << 10, 64, 4};

    auto t0 = std::chrono::steady_clock::now();
    auto faFull = runFaSweepSharded(full, layout, 64, faSizes, shards);
    double faMs = millisSince(t0);
    t0 = std::chrono::steady_clock::now();
    CacheStats saFull = runCacheSharded(full, layout, saCfg, shards);
    double saMs = millisSince(t0);

    uint64_t logicalAccesses =
        faFull[0].accesses + saFull.accesses;
    uint64_t materializedBytes = frames * perFrame * sizeof(uint64_t);
    uint64_t rss = peakRssBytes();
    double fullMs = faMs + saMs;
    double aps = logicalAccesses / (fullMs / 1e3);

    panic_if(faFull[0].accesses != frames * perFrame ||
                 saFull.accesses != frames * perFrame,
             "full run replayed ", faFull[0].accesses, "/",
             saFull.accesses, " accesses, wanted ", frames * perFrame);
    // The streamed engine's point: peak RSS stays below what merely
    // holding the logical trace would cost. Only meaningful once the
    // stream dwarfs the render working set (one frame's records).
    if (frames >= 3)
        panic_if(rss >= materializedBytes,
                 "peak rss ", rss, " not below materialized trace "
                 "size ", materializedBytes);

    TextTable table("sharded streamed replay (" +
                    std::to_string(frames) + " frames x " +
                    std::to_string(perFrame) + " records, " +
                    std::to_string(shards) + " shards, " +
                    std::to_string(Sweep::threadCount()) + " threads)");
    table.header({"Pass", "Accesses", "Wall(ms)", "Accesses/s"});
    table.row({"fa_sweep(" + std::to_string(faSizes.size()) + " sizes)",
               std::to_string(faFull[0].accesses), fmtFixed(faMs, 0),
               fmtFixed(faFull[0].accesses / (faMs / 1e3) / 1e6, 1) +
                   "M"});
    table.row({saCfg.str(), std::to_string(saFull.accesses),
               fmtFixed(saMs, 0),
               fmtFixed(saFull.accesses / (saMs / 1e3) / 1e6, 1) +
                   "M"});
    table.print(std::cout);

    double speedup = sp.shardedMs > 0 ? sp.serialMs / sp.shardedMs : 0;
    std::cout << "\nspeedup (composite, " << speedupFrames
              << " frames): serial " << fmtFixed(sp.serialMs, 0)
              << " ms vs sharded " << fmtFixed(sp.shardedMs, 0)
              << " ms -> " << fmtFixed(speedup, 2) << "x (fa "
              << fmtFixed(sp.faSerialMs / sp.faShardedMs, 2) << "x, sa "
              << fmtFixed(sp.saSerialMs / sp.saShardedMs, 2) << "x)\n"
              << "peak rss " << rss / (1 << 20)
              << " MiB, materialized trace would be "
              << materializedBytes / (1 << 20) << " MiB\n";

    benchutil::dumpStats("shard_sim", [&](RunManifest &m,
                                          stats::Group &root) {
        m.config("scene", spec.key());
        m.config("shards", uint64_t(shards));
        m.config("threads", uint64_t(Sweep::threadCount()));
        m.config("frames", frames);
        m.config("target_accesses", o.targetAccesses);
        m.config("fa_sizes", uint64_t(faSizes.size()));

        // Determinism pins. The logical access count is only a stable
        // constant at the default target; reduced local runs
        // (TEXCACHE_SHARD_TARGET) keep it visible but ungated.
        m.metric("frame_records", double(perFrame), "exact");
        m.metric("logical_accesses", double(logicalAccesses),
                 o.targetIsDefault ? "exact" : "report");

        // Throughput gate: loose, machine-dependent; only collapses
        // (e.g. losing the streamed fast path) should trip it.
        m.metric("sharded_accesses_per_sec", aps, "higher", 0.5);

        // Speedups are a property of the host's core count, so the
        // committed baseline reports them; CI gates the *fresh* run's
        // value keyed on host.hardware_concurrency.
        m.metric("shard_speedup", speedup, "report");
        m.metric("fa_shard_speedup", sp.faSerialMs / sp.faShardedMs,
                 "report");
        m.metric("sa_shard_speedup", sp.saSerialMs / sp.saShardedMs,
                 "report");

        // The streamed-replay bound: peak RSS is a budget, not a
        // measurement - "ceiling" fails any fresh run above
        // baseline * 1.5 even though lower is always fine. The slack
        // covers multi-threaded hosts (more concurrent map windows and
        // tile buffers); the budget is still ~20x below what
        // materializing the default 10^9-access trace would cost.
        m.metric("peak_rss_bytes", double(rss), "ceiling", 0.5);
        m.metric("full_wall_ms", fullMs, "report");

        stats::Group &g = root.group("shard");
        g.constant("frames", frames, "frame replications of the spill");
        g.constant("per_frame_records", perFrame,
                   "records in the spilled chunked trace");
        g.constant("materialized_bytes", materializedBytes,
                   "what holding the logical trace would cost");
        g.constant("peak_rss_bytes", rss, "getrusage peak RSS");
    });

    if (createdDir)
        std::filesystem::remove_all(dir);
    return 0;
}
