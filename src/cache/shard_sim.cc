#include "cache/shard_sim.hh"

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

#include "common/bits.hh"
#include "common/logging.hh"

namespace texcache {

// ---- Set partitioning ----------------------------------------------

namespace {

/**
 * Feed @p n addresses to move-to-front stacks of @p D entries (0: of
 * @p depth, known only at run time). A hit at position p counts in
 * hist[p] and moves the line to the top; a miss at full depth drops
 * the bottom entry (the least recently used line, or padding) and
 * files the line as touched.
 */
template <unsigned D>
void
stackKernel(uint64_t *stacks, uint64_t *hist, LineSet &touched,
            unsigned shift, uint64_t set_mask, unsigned depth,
            const Addr *a, size_t n)
{
    const unsigned d = D ? D : depth;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t line = a[i] >> shift;
        uint64_t *st = stacks + (line & set_mask) * d;
        if (st[0] == line) {
            ++hist[0];
            continue;
        }
        unsigned p = 1;
        while (p < d && st[p] != line)
            ++p;
        if (p < d) {
            ++hist[p];
        } else {
            --p;
            touched.insert(line);
        }
        for (; p > 0; --p)
            st[p] = st[p - 1];
        st[0] = line;
    }
}

} // namespace

SetShardSim::SetShardSim(const std::vector<CacheConfig> &configs,
                         unsigned shards)
    : configs_(configs), shards_(shards), keys_(std::bit_ceil(shards))
{
    fatal_if(configs.empty(), "sharded simulation with no configs");
    fatal_if(!shards, "set sharding over zero shards");
    for (size_t c = 0; c < configs.size(); ++c) {
        const CacheConfig &cfg = configs[c];
        cfg.validate();
        const unsigned shift = log2Exact(cfg.lineBytes);
        const uint64_t sets = cfg.numSets();
        auto g = std::find_if(groups_.begin(), groups_.end(),
                              [&](const Group &g) {
                                  return g.lineShift == shift &&
                                         g.sets == sets;
                              });
        if (g == groups_.end())
            g = groups_.insert(g, Group{shift, sets, 0, {}});
        g->depth = std::max<unsigned>(
            g->depth, static_cast<unsigned>(cfg.numLines() / sets));
        g->members.push_back(c);
    }

    struct Plan
    {
        size_t group;
        size_t lineKey;
        unsigned shard;
        unsigned buckets; ///< of the K per line size that it reads
    };
    std::vector<Plan> plan;
    for (size_t g = 0; g < groups_.size(); ++g) {
        if (keys_ == 1 || groups_[g].sets < keys_) {
            plan.push_back({g, kWholeSpans, 0, keys_});
            continue;
        }
        const unsigned shift = groups_[g].lineShift;
        size_t l = std::find(lineShifts_.begin(), lineShifts_.end(), shift) -
                   lineShifts_.begin();
        if (l == lineShifts_.size())
            lineShifts_.push_back(shift);
        for (unsigned k = 0; k < shards; ++k)
            plan.push_back({g, l, k, (keys_ - k + shards - 1) / shards});
    }

    // Longest first, so the last sims a window's workers claim are its
    // shortest. A sim costs about its share of the stream times the
    // depth its misses scan, a little more with fewer sets (more
    // misses). The key holds only the group's geometry and the shard,
    // so a permuted configuration list is scheduled the same way.
    auto key = [&](const Plan &p) {
        const Group &g = groups_[p.group];
        return std::make_tuple(-static_cast<int64_t>(uint64_t(p.buckets) *
                                                     g.depth),
                               g.sets, g.lineShift, p.shard);
    };
    std::stable_sort(plan.begin(), plan.end(),
                     [&](const Plan &a, const Plan &b) {
                         return key(a) < key(b);
                     });

    sims_.reserve(plan.size());
    for (const Plan &p : plan) {
        const Group &g = groups_[p.group];
        StackSim &s = sims_.emplace_back();
        s.group = p.group;
        s.lineKey = p.lineKey;
        s.shard = p.shard;
        s.stacks.assign(g.sets * g.depth, kEmpty);
        s.hist.assign(g.depth, 0);
    }
}

void
SetShardSim::scatter(Span &span) const
{
    // A stable counting sort per line size: buffers sized exactly, so a
    // window costs what it holds. Neighbouring texel addresses mostly
    // share a key, so with one counter per key every increment would
    // wait on the last; the span is cut into four quarters, counted
    // and placed side by side with counters of their own. Quarter q's
    // share of a bucket lands after those of quarters < q, and the
    // tail past 4m belongs to the last quarter, so the sort stays
    // stable.
    const size_t n = span.addrs.size(), m = n / 4, k = keys_;
    const uint64_t mask = keys_ - 1;
    const Addr *a = span.addrs.data();
    span.byKey.resize(lineShifts_.size() * n);
    span.start.resize(lineShifts_.size() * (k + 1));
    span.next.resize(4 * k);
    size_t *c = span.next.data(); // c[q * k + b]: quarter q, bucket b
    for (size_t l = 0; l < lineShifts_.size(); ++l) {
        const unsigned shift = lineShifts_[l];
        auto key = [&](size_t i, size_t q) {
            return q * k + ((a[i] >> shift) & mask);
        };
        std::fill(c, c + 4 * k, 0);
        for (size_t i = 0; i < m; ++i) {
            ++c[key(i, 0)];
            ++c[key(m + i, 1)];
            ++c[key(2 * m + i, 2)];
            ++c[key(3 * m + i, 3)];
        }
        for (size_t i = 4 * m; i < n; ++i)
            ++c[key(i, 3)];

        size_t *start = &span.start[l * (k + 1)];
        start[0] = 0;
        for (size_t b = 0; b < k; ++b) {
            size_t at = start[b];
            for (size_t q = 0; q < 4; ++q)
                at += std::exchange(c[q * k + b], at);
            start[b + 1] = at;
        }

        Addr *out = &span.byKey[l * n];
        for (size_t i = 0; i < m; ++i) {
            out[c[key(i, 0)]++] = a[i];
            out[c[key(m + i, 1)]++] = a[m + i];
            out[c[key(2 * m + i, 2)]++] = a[2 * m + i];
            out[c[key(3 * m + i, 3)]++] = a[3 * m + i];
        }
        for (size_t i = 4 * m; i < n; ++i)
            out[c[key(i, 3)]++] = a[i];
    }
}

void
SetShardSim::access(StackSim &sim, const Addr *a, size_t n) const
{
    const Group &g = groups_[sim.group];
    sim.accesses += n;
    auto run = [&](auto kernel) {
        kernel(sim.stacks.data(), sim.hist.data(), sim.touched,
               g.lineShift, g.sets - 1, g.depth, a, n);
    };
    // The paper's way counts get fixed-depth kernels.
    switch (g.depth) {
    case 1: run(stackKernel<1>); break;
    case 2: run(stackKernel<2>); break;
    case 4: run(stackKernel<4>); break;
    case 8: run(stackKernel<8>); break;
    default: run(stackKernel<0>); break;
    }
}

void
SetShardSim::replay(size_t sim, const Span *spans, size_t n)
{
    // Each sim consumes the whole window, so its stacks stay hot.
    StackSim &s = sims_[sim];
    for (size_t i = 0; i < n; ++i) {
        const Span &span = spans[i];
        if (s.lineKey == kWholeSpans) {
            access(s, span.addrs.data(), span.addrs.size());
            continue;
        }
        const Addr *sorted = &span.byKey[s.lineKey * span.addrs.size()];
        const size_t *start = &span.start[s.lineKey * (keys_ + 1)];
        for (unsigned b = s.shard; b < keys_; b += shards_)
            access(s, sorted + start[b], start[b + 1] - start[b]);
    }
}

void
SetShardSim::addStats(const StackSim &sim,
                      std::vector<CacheStats> &out) const
{
    const Group &g = groups_[sim.group];
    // held[f]: sets holding f lines. A set of w ways holds min(w, f)
    // of them, one filled per miss that evicted nothing.
    std::vector<uint64_t> held(g.depth + 1, 0);
    for (uint64_t set = 0; set < g.sets; ++set) {
        const uint64_t *st = &sim.stacks[set * g.depth];
        unsigned f = 0;
        while (f < g.depth && st[f] != kEmpty)
            ++f;
        ++held[f];
    }
    for (size_t c : g.members) {
        const uint64_t ways = configs_[c].numLines() / g.sets;
        uint64_t hits = 0, resident = 0;
        for (uint64_t p = 0; p < ways; ++p)
            hits += sim.hist[p];
        for (uint64_t f = 1; f <= g.depth; ++f)
            resident += held[f] * std::min(ways, f);
        const uint64_t misses = sim.accesses - hits;
        CacheStats &o = out[c];
        o.accesses += sim.accesses;
        o.misses += misses;
        o.coldMisses += sim.touched.size();
        o.evictions += misses - resident;
    }
}

std::vector<CacheStats>
SetShardSim::shardStats(unsigned shard) const
{
    std::vector<CacheStats> out(configs_.size());
    for (const StackSim &s : sims_)
        if (s.shard == shard)
            addStats(s, out);
    return out;
}

std::vector<CacheStats>
SetShardSim::stats() const
{
    std::vector<CacheStats> out(configs_.size());
    for (const StackSim &s : sims_)
        addStats(s, out);
    return out;
}

// ---- Time partitioning ---------------------------------------------

StackSegmentPass::StackSegmentPass(unsigned line_bytes)
    : prof_(line_bytes)
{
    prof_.setFirstTouchLog(&firstTouch_);
}

StackShardPass
StackSegmentPass::finish()
{
    prof_.setFirstTouchLog(nullptr);
    StackShardPass pass;
    pass.accesses = prof_.accesses();
    pass.hist = prof_.histogram();
    pass.firstTouch = std::move(firstTouch_);
    pass.finalOrder = prof_.stackOrder();
    return pass;
}

// ---- Global LRU-stack oracle ---------------------------------------

uint64_t
LruStackOracle::touch(uint64_t line)
{
    uint64_t *slot = index_.find(line);
    if (!slot) {
        index_.push(line, nullptr);
        return 0;
    }
    const uint64_t dist = index_.newerThan(slot) + 1;
    index_.remove(slot);
    index_.push(line, slot);
    return dist;
}

void
LruStackOracle::promote(uint64_t line)
{
    uint64_t *slot = index_.find(line);
    panic_if(!slot, "promote of line ", line,
             " absent from the oracle stack");
    index_.remove(slot);
    index_.push(line, slot);
}

// ---- Merge ---------------------------------------------------------

ShardedStackProfile
mergeStackShards(const std::vector<StackShardPass> &passes,
                 unsigned line_bytes)
{
    ShardedStackProfile out;
    out.lineShift = log2Exact(line_bytes);

    LruStackOracle oracle;
    for (const StackShardPass &pass : passes) {
        out.accesses += pass.accesses;

        // Locally-exact distances merge as-is.
        if (pass.hist.size() > out.hist.size())
            out.hist.resize(pass.hist.size(), 0);
        for (size_t d = 0; d < pass.hist.size(); ++d)
            out.hist[d] += pass.hist[d];

        // Resolve the segment's locally-cold accesses. Touching in
        // first-touch order keeps every line the segment saw before
        // access k above the stack position of line k's previous
        // (earlier-segment) touch, so the oracle distance is the exact
        // global one.
        for (uint64_t line : pass.firstTouch) {
            uint64_t d = oracle.touch(line);
            if (!d) {
                ++out.cold;
                continue;
            }
            if (d >= out.hist.size())
                out.hist.resize(d + 1, 0);
            ++out.hist[d];
        }

        // Restore the true global stack: the segment's lines belong at
        // the top, ordered by their *last* local access, not their
        // first touch.
        for (uint64_t line : pass.finalOrder)
            oracle.promote(line);
    }
    return out;
}

} // namespace texcache
