/**
 * @file
 * Tests for the event-tracing layer (src/tracing/): gating, event
 * ordering, sampling determinism, drop accounting, source tags, the
 * binary event log round trip and the Chrome trace shape.
 *
 * The tracer is process-global; every test re-arms it with
 * configure() and disarms at the end so tests stay independent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "cache/cache_sim.hh"
#include "cache/hierarchy.hh"
#include "cache/three_c.hh"
#include "core/experiment.hh"
#include "core/shard_replay.hh"
#include "core/sweep.hh"
#include "thread_env.hh"
#include "timing/dram_model.hh"
#include "tracing/tracing.hh"
#include "vt/fetch_queue.hh"

using namespace texcache;
using namespace texcache::tracing;

namespace {

/** Re-arm the tracer and guarantee disarming on scope exit. */
struct TracerGuard
{
    explicit TracerGuard(uint32_t mask, uint64_t sample_n = 1,
                         uint64_t capacity = 1 << 16)
    {
        configure({mask, sample_n, capacity});
        clearTexelContext();
    }
    ~TracerGuard() { configure({0, 1, 1 << 16}); }
};

std::vector<Event>
eventsOfKind(const std::vector<Event> &all, EventKind k)
{
    std::vector<Event> out;
    for (const Event &ev : all)
        if (ev.kind == static_cast<uint8_t>(k))
            out.push_back(ev);
    return out;
}

} // namespace

TEST(Tracing, DisabledByDefaultAndNoOp)
{
    TracerGuard guard(0);
    EXPECT_FALSE(active());
    EXPECT_FALSE(enabled(kMisses));
    cacheMiss(0x1234, MissClass::Cold, kTagStandalone);
    cacheHit(0x1234, kTagStandalone);
    CacheSim cache({1024, 64, 1});
    for (Addr a = 0; a < 4096; a += 64)
        cache.access(a);
    // With the mask clear nothing records, not even direct emitter
    // calls - the whole layer is inert.
    EXPECT_EQ(snapshotEvents().size(), 0u);
    EXPECT_EQ(recordedCount(), 0u);
    EXPECT_EQ(droppedCount(), 0u);
}

TEST(Tracing, SpanOrderingWithinThread)
{
    TracerGuard guard(kSpans);
    uint16_t outer = nameId("test.outer");
    uint16_t inner = nameId("test.inner");
    {
        ScopedSpan a(outer, 7);
        ScopedSpan b(inner);
    }
    std::vector<Event> evs = snapshotEvents();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs[0].kind, uint8_t(EventKind::SpanBegin));
    EXPECT_EQ(evs[0].a, outer);
    EXPECT_EQ(evs[0].addr, 7u);
    EXPECT_EQ(evs[1].a, inner);
    // LIFO: inner ends before outer.
    EXPECT_EQ(evs[2].kind, uint8_t(EventKind::SpanEnd));
    EXPECT_EQ(evs[2].a, inner);
    EXPECT_EQ(evs[3].a, outer);
    // Timestamps are monotone within the thread.
    for (size_t i = 1; i < evs.size(); ++i)
        EXPECT_GE(evs[i].ts, evs[i - 1].ts);
}

TEST(Tracing, CacheSimEmitsMissEventsWithColdClass)
{
    TracerGuard guard(kMisses);
    CacheSim cache({1024, 64, 1});
    // 32 distinct lines (cold), then revisit the first 16 lines of a
    // 16-line cache after they were evicted (non-cold misses).
    for (Addr a = 0; a < 32 * 64; a += 64)
        cache.access(a);
    for (Addr a = 0; a < 16 * 64; a += 64)
        cache.access(a);

    std::vector<Event> misses =
        eventsOfKind(snapshotEvents(), EventKind::CacheMiss);
    ASSERT_EQ(misses.size(), cache.stats().misses);
    uint64_t cold = 0;
    for (const Event &ev : misses) {
        EXPECT_EQ(ev.tag, kTagStandalone);
        // No replay driver set a texel context here.
        EXPECT_EQ(ev.a, kNoContext);
        if (ev.cls == uint8_t(MissClass::Cold))
            ++cold;
        else
            EXPECT_EQ(ev.cls, uint8_t(MissClass::Other));
    }
    EXPECT_EQ(cold, cache.stats().coldMisses);
}

TEST(Tracing, TexelContextIsCarriedOnMissEvents)
{
    TracerGuard guard(kMisses);
    setTexelContext(/*x=*/100, /*y=*/200, /*tex=*/3, /*level=*/2,
                    /*u=*/40, /*v=*/50);
    CacheSim cache({1024, 64, 1});
    cache.access(0x4000);
    clearTexelContext();
    cache.access(0x8000);

    std::vector<Event> misses =
        eventsOfKind(snapshotEvents(), EventKind::CacheMiss);
    ASSERT_EQ(misses.size(), 2u);
    EXPECT_EQ(misses[0].a, (100u << 16) | 200u);
    EXPECT_EQ(misses[0].b, (3u << 16) | 2u);
    EXPECT_EQ(misses[0].c, (40u << 16) | 50u);
    EXPECT_EQ(misses[1].a, kNoContext);
}

TEST(Tracing, SamplingIsDeterministic)
{
    auto run = [] {
        CacheSim cache({1024, 64, 1});
        uint32_t x = 7;
        for (int i = 0; i < 4000; ++i) {
            x = x * 1664525u + 1013904223u;
            cache.access((x >> 8) & 0xffffc0);
        }
        std::vector<uint64_t> addrs;
        for (const Event &ev :
             eventsOfKind(snapshotEvents(), EventKind::CacheMiss))
            addrs.push_back(ev.addr);
        return addrs;
    };

    std::vector<uint64_t> first, second;
    uint64_t all = 0;
    {
        TracerGuard guard(kMisses, /*sample_n=*/1);
        all = run().size();
    }
    {
        TracerGuard guard(kMisses, /*sample_n=*/4);
        first = run();
    }
    {
        TracerGuard guard(kMisses, /*sample_n=*/4);
        second = run();
    }
    ASSERT_GT(all, 100u);
    // Every 4th emission is kept, deterministically.
    EXPECT_EQ(first.size(), (all + 3) / 4);
    EXPECT_EQ(first, second);
}

TEST(Tracing, DropAccountingWhenRingFills)
{
    TracerGuard guard(kMisses, 1, /*capacity=*/16);
    CacheSim cache({1024, 64, 1});
    for (Addr a = 0; a < 100 * 64; a += 64)
        cache.access(a); // 100 cold misses
    EXPECT_EQ(recordedCount(), 16u);
    EXPECT_EQ(droppedCount(), 84u);
    // The accounting survives into the binary log header.
    std::stringstream ss;
    writeEventLog(ss);
    EventLog log;
    std::string err;
    ASSERT_TRUE(readEventLog(ss, log, err)) << err;
    EXPECT_EQ(log.dropped, 84u);
    EXPECT_EQ(log.eventCount(), 16u);
}

TEST(Tracing, HierarchyTagsL1AndL2)
{
    TracerGuard guard(kMisses);
    TwoLevelCache h(2, {1024, 64, 1}, {4096, 64, 2});
    for (Addr a = 0; a < 32 * 64; a += 64)
        h.access(a & 1 ? 1 : 0, a);
    std::vector<Event> misses =
        eventsOfKind(snapshotEvents(), EventKind::CacheMiss);
    ASSERT_FALSE(misses.empty());
    bool saw_l1 = false, saw_l2 = false;
    for (const Event &ev : misses) {
        if (ev.tag == kTagL1)
            saw_l1 = true;
        else if (ev.tag == kTagL2)
            saw_l2 = true;
        else
            FAIL() << "unexpected tag " << ev.tag;
    }
    EXPECT_TRUE(saw_l1);
    EXPECT_TRUE(saw_l2);
}

TEST(Tracing, MissClassifierEmitsRefinedThreeCClasses)
{
    TracerGuard guard(kMisses);
    // Direct-mapped 4-line cache: lines 0 and 4 conflict on set 0
    // while an FA cache of the same size holds both.
    MissClassifier mc({4 * 64, 64, 1});
    auto line = [](uint64_t n) { return n * 64; };
    mc.access(line(0));
    mc.access(line(4));
    for (int rep = 0; rep < 8; ++rep) {
        mc.access(line(0));
        mc.access(line(4));
    }
    MissBreakdown b = mc.breakdown();
    ASSERT_GT(b.conflict, 0u);

    std::vector<Event> misses =
        eventsOfKind(snapshotEvents(), EventKind::CacheMiss);
    // Exactly the set-associative misses, all from the classifier
    // (the silent twins emit nothing), classes matching breakdown().
    ASSERT_EQ(misses.size(), b.misses);
    uint64_t cold = 0, conflict = 0, capacity = 0;
    for (const Event &ev : misses) {
        EXPECT_EQ(ev.tag, kTagClassified);
        switch (MissClass(ev.cls)) {
          case MissClass::Cold:
            ++cold;
            break;
          case MissClass::Conflict:
            ++conflict;
            break;
          case MissClass::Capacity:
            ++capacity;
            break;
          default:
            FAIL() << "unrefined class on classifier event";
        }
    }
    EXPECT_EQ(cold, b.cold);
    EXPECT_EQ(conflict, b.conflict);
    EXPECT_EQ(capacity, b.capacity);
}

TEST(Tracing, FetchQueueEventsInSimDomain)
{
    TracerGuard guard(kFetches);
    FetchQueue q({/*maxInFlight=*/2, /*baseLatency=*/10}, DramConfig{},
                 4096);
    EXPECT_EQ(q.request(1, 0x1000, 0), FetchResult::Issued);
    EXPECT_EQ(q.request(1, 0x1000, 1), FetchResult::Merged);
    EXPECT_EQ(q.request(2, 0x2000, 2), FetchResult::Issued);
    EXPECT_EQ(q.request(3, 0x3000, 3), FetchResult::Dropped);
    unsigned completed = 0;
    q.drainAll([&](PageId) { ++completed; });
    EXPECT_EQ(completed, 2u);

    std::vector<Event> evs = snapshotEvents();
    EXPECT_EQ(eventsOfKind(evs, EventKind::FetchIssue).size(), 2u);
    EXPECT_EQ(eventsOfKind(evs, EventKind::FetchMerge).size(), 1u);
    EXPECT_EQ(eventsOfKind(evs, EventKind::FetchDrop).size(), 1u);
    std::vector<Event> done =
        eventsOfKind(evs, EventKind::FetchComplete);
    ASSERT_EQ(done.size(), 2u);
    for (const Event &ev : done) {
        // Latency (issue -> data) must cover the fixed base latency.
        EXPECT_GE(ev.b, 10u);
        EXPECT_GE(ev.ts, ev.b); // completion tick >= latency
    }
}

TEST(Tracing, SweepEmitsRunAndPointSpans)
{
    TracerGuard guard(kSpans);
    std::vector<int> points(17);
    for (int i = 0; i < 17; ++i)
        points[i] = i;
    auto results = Sweep::run(points, [](int p) { return p * 2; });
    ASSERT_EQ(results.size(), 17u);

    std::vector<Event> evs = snapshotEvents();
    std::vector<Event> begins = eventsOfKind(evs, EventKind::SpanBegin);
    uint64_t point_begins = 0;
    std::vector<bool> seen(17, false);
    uint16_t point_id = nameId("sweep.point");
    uint16_t run_id = nameId("sweep.run");
    bool saw_run = false;
    for (const Event &ev : begins) {
        if (ev.a == point_id) {
            ++point_begins;
            ASSERT_LT(ev.addr, 17u);
            seen[ev.addr] = true;
        } else if (ev.a == run_id) {
            saw_run = true;
        }
    }
    EXPECT_TRUE(saw_run);
    EXPECT_EQ(point_begins, 17u); // every point exactly once
    for (bool s : seen)
        EXPECT_TRUE(s);
    // Begin/end counts balance.
    EXPECT_EQ(begins.size(),
              eventsOfKind(evs, EventKind::SpanEnd).size());
}

TEST(Tracing, NestedSweepsRecordOnOneRingPerPoolThread)
{
    // Every thread that records gets a ring of its own; the pool's
    // workers are started once, so however many nested sweeps run,
    // their point spans sit on at most threadCount() rings.
    TracerGuard guard(kSpans, 1, 1 << 20);
    ThreadEnv env("4");
    std::vector<int> outer(4), inner(5);
    std::iota(outer.begin(), outer.end(), 0);
    std::iota(inner.begin(), inner.end(), 0);
    for (int rep = 0; rep < 50; ++rep)
        Sweep::run(outer, [&](int o) {
            int sum = 0;
            for (const auto &r : Sweep::run(inner, [&](int i) {
                     return o * i;
                 }))
                sum += r.value;
            return sum;
        });

    std::stringstream ss;
    writeEventLog(ss);
    EventLog log;
    std::string err;
    ASSERT_TRUE(readEventLog(ss, log, err)) << err;
    uint16_t point_id = nameId("sweep.point");
    std::set<uint32_t> tids;
    uint64_t points = 0;
    for (const tracing::RingData &ring : log.rings)
        for (const Event &ev : ring.events)
            if (ev.kind == uint8_t(EventKind::SpanBegin) &&
                ev.a == point_id) {
                tids.insert(ring.tid);
                ++points;
            }
    EXPECT_EQ(points, 50u * (4 + 4 * 5));
    EXPECT_LE(tids.size(), 4u);
}

TEST(Tracing, SweepPassesEmitSimStageSpans)
{
    // One set pass for every set-associative config, one stack pass
    // per fully associative line size.
    TracerGuard guard(kSpans);
    TraceStore store;
    SceneSpec quad = SceneSpec::quadScene(64, 128);
    const TexelTrace &trace = store.trace(quad, RasterOrder::horizontal());
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout layout(store.scene(quad), p);
    configure({kSpans, 1, 1 << 16});
    runCacheSweep(trace, layout,
                  {{4 << 10, 32, 1},
                   {8 << 10, 64, 2},
                   {4 << 10, 32, CacheConfig::kFullyAssoc},
                   {16 << 10, 64, CacheConfig::kFullyAssoc},
                   {8 << 10, 32, CacheConfig::kFullyAssoc}});

    uint16_t sa = nameId("sim.sa"), fa = nameId("sim.fa");
    size_t sa_spans = 0, fa_spans = 0;
    std::vector<Event> evs = snapshotEvents();
    for (const Event &ev : eventsOfKind(evs, EventKind::SpanBegin)) {
        sa_spans += ev.a == sa;
        fa_spans += ev.a == fa;
    }
    EXPECT_EQ(sa_spans, 1u);
    EXPECT_EQ(fa_spans, 2u);
    EXPECT_EQ(eventsOfKind(evs, EventKind::SpanEnd).size(),
              eventsOfKind(evs, EventKind::SpanBegin).size());
}

TEST(Tracing, TracedRunnersRecordTheirMisses)
{
    // Armed for misses, the runners replay in stream order: runCache
    // records every miss as a lone cache, classifyCache every miss
    // with its refined 3C class, and a sweep its set-associative
    // configurations' misses (a stack pass records none). Split set
    // shards stay silent.
    ThreadEnv env("4");
    TraceStore store;
    SceneSpec quad = SceneSpec::quadScene(64, 128);
    const TexelTrace &trace = store.trace(quad, RasterOrder::horizontal());
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    SceneLayout layout(store.scene(quad), p);
    TracerGuard guard(kMisses, 1, 1 << 20);
    EXPECT_EQ(resolveShards(0, uint64_t(1) << 22), 1u);

    auto misses = [](uint16_t tag) {
        std::vector<Event> evs =
            eventsOfKind(snapshotEvents(), EventKind::CacheMiss);
        uint64_t cold = 0;
        for (const Event &ev : evs) {
            EXPECT_EQ(ev.tag, tag);
            cold += ev.cls == uint8_t(MissClass::Cold);
        }
        return std::make_pair(uint64_t(evs.size()), cold);
    };

    const CacheConfig sa{4 << 10, 32, 2}, small{512, 32, 2};
    const CacheConfig fa{4 << 10, 32, CacheConfig::kFullyAssoc};
    for (const CacheConfig &c : {sa, fa}) {
        configure({kMisses, 1, 1 << 20});
        CacheStats st = runCache(trace, layout, c);
        ASSERT_GT(st.misses, 0u);
        EXPECT_EQ(misses(kTagStandalone),
                  std::make_pair(st.misses, st.coldMisses));
    }

    configure({kMisses, 1, 1 << 20});
    MissBreakdown b = classifyCache(trace, layout, small);
    ASSERT_GT(b.conflict, 0u);
    EXPECT_EQ(misses(kTagClassified), std::make_pair(b.misses, b.cold));

    configure({kMisses, 1, 1 << 20});
    std::vector<CacheStats> st = runCacheSweep(trace, layout, {sa, fa, small});
    EXPECT_EQ(misses(kTagStandalone).first, st[0].misses + st[2].misses);

    configure({kMisses, 1, 1 << 20});
    runCacheSweepSharded(MemoryTraceSource(trace), layout, {sa, small}, 2);
    EXPECT_EQ(misses(kTagStandalone).first, 0u);
}

TEST(Tracing, SceneBuildEmitsOneSpanPerBuild)
{
    TracerGuard guard(kSpans);
    uint16_t build_id = nameId("scene.build");
    auto builds = [&](const std::vector<Event> &evs) {
        size_t n = 0;
        for (const Event &ev : eventsOfKind(evs, EventKind::SpanBegin))
            n += ev.a == build_id;
        return n;
    };

    TraceStore store;
    SceneSpec quad = SceneSpec::quadScene(64, 128);
    store.scene(quad);
    store.scene(quad); // memoized: no second build, no second span
    std::vector<Event> evs = snapshotEvents();
    EXPECT_EQ(builds(evs), 1u);
    EXPECT_EQ(eventsOfKind(evs, EventKind::SpanEnd).size(),
              eventsOfKind(evs, EventKind::SpanBegin).size());

    // A paper scene's texture fan-out runs inside its build span, so
    // the pool's sweep.run nests under scene.build on this thread.
    configure({kSpans, 1, 1 << 16});
    store.scene(BenchScene::Guitar);
    evs = snapshotEvents();
    EXPECT_EQ(builds(evs), 1u);
    uint16_t run_id = nameId("sweep.run");
    int depth = 0;
    bool nested = false;
    for (const Event &ev : evs) {
        bool begin = ev.kind == uint8_t(EventKind::SpanBegin);
        bool end = ev.kind == uint8_t(EventKind::SpanEnd);
        if (ev.a == build_id && (begin || end))
            depth += begin ? 1 : -1;
        else if (ev.a == run_id && begin)
            nested = depth == 1;
    }
    EXPECT_TRUE(nested);
    EXPECT_EQ(depth, 0);
}

TEST(Tracing, BinaryLogRoundTripPreservesEverything)
{
    TracerGuard guard(kSpans | kMisses, /*sample_n=*/2);
    uint16_t name = nameId("roundtrip.span");
    spanBegin(name, 42);
    setTexelContext(1, 2, 3, 0, 5, 6);
    CacheSim cache({1024, 64, 1});
    for (Addr a = 0; a < 10 * 64; a += 64)
        cache.access(a);
    spanEnd(name);

    std::vector<Event> live = snapshotEvents();
    std::stringstream ss;
    writeEventLog(ss);
    EventLog log;
    std::string err;
    ASSERT_TRUE(readEventLog(ss, log, err)) << err;
    EXPECT_EQ(log.sampleN, 2u);
    EXPECT_EQ(log.name(name), "roundtrip.span");
    ASSERT_EQ(log.eventCount(), live.size());
    size_t i = 0;
    for (const tracing::RingData &ring : log.rings) {
        for (const Event &ev : ring.events) {
            EXPECT_EQ(ev.ts, live[i].ts);
            EXPECT_EQ(ev.addr, live[i].addr);
            EXPECT_EQ(ev.kind, live[i].kind);
            EXPECT_EQ(ev.a, live[i].a);
            EXPECT_EQ(ev.b, live[i].b);
            EXPECT_EQ(ev.c, live[i].c);
            ++i;
        }
    }
}

TEST(Tracing, RejectsCorruptEventLogs)
{
    std::stringstream empty;
    EventLog log;
    std::string err;
    EXPECT_FALSE(readEventLog(empty, log, err));
    std::stringstream garbage("this is not an event log at all");
    EXPECT_FALSE(readEventLog(garbage, log, err));
    EXPECT_FALSE(err.empty());
}

TEST(Tracing, ChromeTraceShape)
{
    TracerGuard guard(kSpans | kFetches);
    uint16_t name = nameId("chrome.test");
    {
        ScopedSpan s(name, 3);
    }
    FetchQueue q({4, 10}, DramConfig{}, 4096);
    q.request(9, 0x9000, 0);
    q.drainAll([](PageId) {});

    std::stringstream ss;
    writeChromeTrace(ss);
    std::string json = ss.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"chrome.test\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("texcache sim-ticks"), std::string::npos);
    // Balanced braces is a cheap proxy for well-formed JSON here; CI
    // additionally json.load()s a real trace.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

#include "vt/page_pool.hh"

TEST(Tracing, PagePoolEvictionEvents)
{
    TracerGuard guard(kFetches);
    PagePool pool({/*pageBytes=*/4096, /*poolPages=*/2});
    pool.insert(1);
    pool.insert(2);
    pool.insert(3); // evicts page 1 (LRU)
    pool.touch(3);
    pool.insert(4); // evicts page 2

    std::vector<Event> evs =
        eventsOfKind(snapshotEvents(), EventKind::PageEvict);
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].addr, 1u);
    EXPECT_EQ(evs[1].addr, 2u);
    // Payload b is the resident-page count right after the eviction.
    EXPECT_EQ(evs[0].b, 1u);
    EXPECT_EQ(evs[1].b, 1u);
}

TEST(Tracing, AsyncSpansRecordIdAndDetail)
{
    TracerGuard guard(kSpans);
    uint16_t req = nameId("async.request");
    uint16_t queue = nameId("async.queue");
    // Interleaved lifetimes that thread-scoped spans cannot express:
    // request 7 outlives request 9's whole queue residency.
    asyncBegin(req, 7, /*detail=*/2);
    asyncBegin(queue, 9);
    asyncEnd(queue, 9);
    asyncEnd(req, 7);

    std::vector<Event> evs = snapshotEvents();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs[0].kind, uint8_t(EventKind::AsyncBegin));
    EXPECT_EQ(evs[0].a, req);
    EXPECT_EQ(evs[0].addr, 7u); // correlation id rides in addr
    EXPECT_EQ(evs[0].c, 2u);    // detail payload
    EXPECT_EQ(evs[1].addr, 9u);
    EXPECT_EQ(evs[2].kind, uint8_t(EventKind::AsyncEnd));
    EXPECT_EQ(evs[2].a, queue);
    EXPECT_EQ(evs[3].a, req);
}

TEST(Tracing, AsyncSpansAreInertWhenDisabled)
{
    TracerGuard guard(kMisses); // spans category off
    asyncBegin(nameId("async.off"), 1);
    asyncEnd(nameId("async.off"), 1);
    EXPECT_EQ(snapshotEvents().size(), 0u);
}

TEST(Tracing, ChromeTraceAsyncShape)
{
    TracerGuard guard(kSpans);
    uint16_t name = nameId("async.chrome");
    asyncBegin(name, 0xabc, 5);
    asyncEnd(name, 0xabc);

    std::stringstream ss;
    writeChromeTrace(ss);
    std::string json = ss.str();
    // Nestable async begin/end, matched by (cat, id, name); the id is
    // a hex string so Perfetto treats it opaquely.
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"async\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":\"0xabc\""), std::string::npos);
    EXPECT_NE(json.find("\"async.chrome\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\":5"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}
