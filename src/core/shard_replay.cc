#include "core/shard_replay.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>
#include <utility>

#include "common/logging.hh"
#include "core/sweep.hh"
#include "perf/perf_counters.hh"
#include "tracing/tracing.hh"

namespace texcache {

/** Records per shard in one window of the set-partitioned pass. */
constexpr unsigned kWindowShift = 18;

namespace {

/** Miss or texel tracing is armed: cache simulators record events. */
bool
traced()
{
    return tracing::enabled(tracing::kMisses | tracing::kTexels);
}

} // namespace

unsigned
resolveShards(unsigned shards, uint64_t records)
{
    if (shards)
        return shards;
    if (traced())
        return 1;
    return static_cast<unsigned>(std::clamp<uint64_t>(
        records >> kWindowShift, 1, Sweep::threadCount()));
}

namespace {

/** Chunk range of segment @p seg of @p segs (contiguous, exhaustive). */
std::pair<uint64_t, uint64_t>
segmentRange(uint64_t chunks, unsigned seg, unsigned segs)
{
    return {chunks * seg / segs, chunks * (seg + 1) / segs};
}

/** Segments for a time-partitioned pass: never more than chunks. */
unsigned
segmentCount(const TraceSource &src, unsigned shards)
{
    return static_cast<unsigned>(std::min<uint64_t>(
        shards, std::max<uint64_t>(1, src.chunkCount())));
}

/** Time-partitioned stack pass over the whole stream, reconciled. */
ShardedStackProfile
stackPass(const TraceSource &src, const SceneLayout &layout,
          unsigned line_bytes, unsigned shards)
{
    static const uint16_t kSpan = tracing::nameId("sim.fa");
    static const uint16_t kMergeSpan = tracing::nameId("shard.merge");
    tracing::ScopedSpan span(kSpan, line_bytes);
    perf::addSimulatedAccesses(src.records());
    unsigned segs = segmentCount(src, shards);
    std::vector<unsigned> ids(segs);
    std::iota(ids.begin(), ids.end(), 0u);
    auto results = Sweep::run(ids, [&](unsigned seg) {
        auto [b, e] = segmentRange(src.chunkCount(), seg, segs);
        StackSegmentPass pass(line_bytes);
        replaySegment(src, layout, b, e,
                      [&](const Addr *a, size_t n) {
                          pass.accessRange(a, n);
                      });
        return pass.finish();
    });
    std::vector<StackShardPass> passes;
    passes.reserve(results.size());
    for (auto &r : results)
        passes.push_back(std::move(r.value));
    tracing::ScopedSpan merge(kMergeSpan, segs);
    return mergeStackShards(passes, line_bytes);
}

/**
 * Set-partitioned pass: the stream is decoded once and every shard
 * simulates only its own sets (SetShardSim), one stack sim per group
 * of configurations sharing a line size and a set count. It runs in
 * windows of chunks, each in two fork-join steps on the sweep pool:
 * one task per chunk maps the chunk and scatters it into per-shard
 * buckets (a "layout.map" span per window), then one worker per shard
 * replays the window's sims, each claiming the next unreplayed sim,
 * longest first, until none is left. Claiming keeps the workers evenly
 * loaded whatever each sim costs, and no more than @p shards sims run
 * at once. Neither step needs all shards live at once, so any shard
 * count runs on any pool.
 */
std::vector<CacheStats>
setPass(const TraceSource &src, const SceneLayout &layout,
        const std::vector<CacheConfig> &configs, unsigned shards)
{
    static const uint16_t kSpan = tracing::nameId("sim.sa");
    static const uint16_t kMapSpan = tracing::nameId("layout.map");
    tracing::ScopedSpan span(kSpan, configs.size());
    perf::addSimulatedAccesses(src.records());
    SetShardSim sim(configs, shards);
    const uint64_t chunks = src.chunkCount();
    if (!chunks)
        return sim.stats();

    // About 2^kWindowShift records per shard per window: a sim's
    // share of a window stays long enough to hide the fork-join, and
    // the window's buffers stay bounded however long the stream.
    const uint64_t per_chunk = (src.records() + chunks - 1) / chunks;
    const uint64_t window = std::clamp<uint64_t>(
        (uint64_t(shards) << kWindowShift) /
            std::max<uint64_t>(1, per_chunk),
        1, chunks);
    std::vector<SetShardSim::Span> spans(window);
    std::vector<unsigned> workers(shards);
    std::iota(workers.begin(), workers.end(), 0u);

    for (uint64_t c0 = 0; c0 < chunks; c0 += window) {
        std::vector<uint64_t> slots(std::min(window, chunks - c0));
        std::iota(slots.begin(), slots.end(), uint64_t(0));
        {
            tracing::ScopedSpan map(kMapSpan,
                                    src.records(c0, c0 + slots.size()));
            Sweep::run(slots, [&](uint64_t i) {
                SetShardSim::Span &span = spans[i];
                src.visitChunks(c0 + i, c0 + i + 1,
                                [&](const uint64_t *recs, size_t n) {
                                    layout.mapPacked(recs, n, span.addrs);
                                });
                sim.scatter(span);
                return true;
            });
        }
        std::atomic<size_t> next{0};
        Sweep::run(workers, [&](unsigned) {
            for (;;) {
                size_t i = next++;
                if (i >= sim.sims())
                    return true;
                sim.replay(i, spans.data(), slots.size());
            }
        });
    }
    return sim.stats();
}

/**
 * Traced replay: one CacheSim per configuration, fed the stream in
 * order, so each records its events as a lone cache does.
 */
std::vector<CacheStats>
tracedPass(const TraceSource &src, const SceneLayout &layout,
           const std::vector<CacheConfig> &configs)
{
    static const uint16_t kSpan = tracing::nameId("sim.sa");
    tracing::ScopedSpan span(kSpan, configs.size());
    perf::addSimulatedAccesses(src.records());
    std::vector<CacheSim> sims(configs.begin(), configs.end());
    replaySegment(src, layout, 0, src.chunkCount(),
                  [&](const Addr *a, size_t n) {
                      for (CacheSim &sim : sims)
                          for (size_t i = 0; i < n; ++i)
                              sim.access(a[i]);
                  });
    std::vector<CacheStats> out;
    for (const CacheSim &sim : sims)
        out.push_back(sim.stats());
    return out;
}

/**
 * Stats of a fully associative LRU cache of @p size_bytes derived
 * from the reconciled profile. A flush-free FA LRU's occupancy grows
 * by one per miss until full and then stays full, so its eviction
 * count is misses - min(capacity, misses), what CacheSim counts.
 */
CacheStats
faStats(const ShardedStackProfile &prof, uint64_t size_bytes,
        unsigned line_bytes)
{
    CacheStats s;
    s.accesses = prof.accesses;
    s.misses = prof.misses(size_bytes);
    s.coldMisses = prof.cold;
    uint64_t capacity = size_bytes / line_bytes;
    s.evictions = s.misses - std::min(capacity, s.misses);
    return s;
}

} // namespace

ShardedStackProfile
profileTraceSharded(const TraceSource &src, const SceneLayout &layout,
                    unsigned line_bytes, unsigned shards)
{
    return stackPass(src, layout, line_bytes,
                     resolveShards(shards, src.records()));
}

CacheStats
runCacheSharded(const TraceSource &src, const SceneLayout &layout,
                const CacheConfig &config, unsigned shards)
{
    // Traced, one configuration is one CacheSim replaying the stream
    // in order, fully associative too, so it records its misses.
    if (traced())
        return tracedPass(src, layout, {config})[0];
    return runCacheSweepSharded(src, layout, {config}, shards)[0];
}

MissBreakdown
classifySharded(const TraceSource &src, const SceneLayout &layout,
                const CacheConfig &config, unsigned shards)
{
    // Traced, each miss is recorded with its cold, capacity or
    // conflict class, which takes the FA twin's verdict on that very
    // access: one MissClassifier replays the stream in order.
    if (traced()) {
        MissClassifier cls(config);
        perf::addSimulatedAccesses(src.records());
        replaySegment(src, layout, 0, src.chunkCount(),
                      [&](const Addr *a, size_t n) {
                          for (size_t i = 0; i < n; ++i)
                              cls.access(a[i]);
                      });
        return cls.breakdown();
    }

    // The configuration and its FA twin in one call: a set pass and a
    // stack pass, or for an FA configuration one stack pass for both.
    CacheConfig twin{config.sizeBytes, config.lineBytes,
                     CacheConfig::kFullyAssoc};
    std::vector<CacheStats> st =
        runCacheSweepSharded(src, layout, {config, twin}, shards);
    return classifyMisses(st[0], st[1]);
}

std::vector<CacheStats>
runFaSweepSharded(const TraceSource &src, const SceneLayout &layout,
                  unsigned line_bytes,
                  const std::vector<uint64_t> &sizes, unsigned shards)
{
    fatal_if(sizes.empty(), "capacity sweep with no sizes");
    std::vector<CacheConfig> configs;
    for (uint64_t size : sizes)
        configs.push_back({size, line_bytes, CacheConfig::kFullyAssoc});
    return runCacheSweepSharded(src, layout, configs, shards);
}

std::vector<CacheStats>
runCacheSweepSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards)
{
    fatal_if(configs.empty(), "sharded sweep with no configs");
    shards = resolveShards(shards, src.records());

    std::vector<CacheConfig> sa;
    std::vector<size_t> sa_idx;
    std::map<unsigned, std::vector<size_t>> fa_by_line;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].assoc == CacheConfig::kFullyAssoc) {
            fa_by_line[configs[i].lineBytes].push_back(i);
        } else {
            sa.push_back(configs[i]);
            sa_idx.push_back(i);
        }
    }

    std::vector<CacheStats> out(configs.size());
    std::vector<std::function<void()>> passes;
    if (!sa.empty())
        passes.emplace_back([&] {
            std::vector<CacheStats> stats =
                shards == 1 && traced() ? tracedPass(src, layout, sa)
                                        : setPass(src, layout, sa, shards);
            for (size_t k = 0; k < sa_idx.size(); ++k)
                out[sa_idx[k]] = stats[k];
        });
    for (const auto &[line, idx] : fa_by_line)
        passes.emplace_back([&, line = line, &idx = idx] {
            ShardedStackProfile prof =
                stackPass(src, layout, line, shards);
            for (size_t i : idx)
                out[i] = faStats(prof, configs[i].sizeBytes, line);
        });

    // Passes that leave pool threads idle run side by side. A pass
    // that fills the pool already keeps every worker busy, so such
    // passes run in turn rather than contend for cores and caches.
    if (passes.size() > 1 && shards < Sweep::threadCount())
        Sweep::run(passes, [](const std::function<void()> &pass) {
            pass();
            return true;
        });
    else
        for (const std::function<void()> &pass : passes)
            pass();
    return out;
}

} // namespace texcache
