#include "cache/shard_sim.hh"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/bits.hh"
#include "common/logging.hh"
#include "tracing/tracing.hh"

namespace texcache {

// ---- Set partitioning ----------------------------------------------

SetShardSim::SetShardSim(const std::vector<CacheConfig> &configs,
                         unsigned shards)
    : configs_(configs.size()), shards_(shards),
      keys_(std::bit_ceil(shards))
{
    fatal_if(configs.empty(), "sharded simulation with no configs");
    fatal_if(!shards, "set sharding over zero shards");
    auto split = [&](const CacheConfig &c) {
        return keys_ > 1 && c.numSets() >= keys_;
    };
    struct Plan
    {
        size_t config;
        size_t lineKey;
        unsigned shard;
        unsigned buckets; ///< of the K per line size that it reads
    };
    std::vector<Plan> plan;
    for (size_t c = 0; c < configs.size(); ++c) {
        if (!split(configs[c])) {
            plan.push_back({c, kWholeSpans, 0, keys_});
            continue;
        }
        unsigned shift = log2Exact(configs[c].lineBytes);
        size_t l = std::find(lineShifts_.begin(), lineShifts_.end(), shift) -
                   lineShifts_.begin();
        if (l == lineShifts_.size())
            lineShifts_.push_back(shift);
        for (unsigned k = 0; k < shards; ++k)
            plan.push_back({c, l, k, (keys_ - k + shards - 1) / shards});
    }

    // Longest first, so the last sims a window's workers claim are its
    // shortest. A sim costs about its share of the stream times its
    // scan length, a little more with fewer sets (more misses). The
    // key holds only the configuration and the shard, so a permuted
    // configuration list is scheduled the same way.
    auto key = [&](const Plan &p) {
        const CacheConfig &c = configs[p.config];
        uint64_t scan = c.assoc == CacheConfig::kFullyAssoc
                            ? c.sizeBytes / c.lineBytes
                            : c.assoc;
        return std::make_tuple(-static_cast<int64_t>(p.buckets * scan),
                               c.numSets(), c.lineBytes, c.sizeBytes,
                               p.shard);
    };
    std::stable_sort(plan.begin(), plan.end(),
                     [&](const Plan &a, const Plan &b) {
                         return key(a) < key(b);
                     });

    // At one shard every sim replays the whole stream in order and
    // records its events as a lone cache does. Split shards run many
    // sims of the same organization, each on its own sets; their
    // per-access events would interleave nonsensically.
    sims_.reserve(plan.size());
    for (const Plan &p : plan) {
        Member m{CacheSim(configs[p.config]), p.config, p.lineKey, p.shard};
        if (shards > 1)
            m.sim.setTraceTag(tracing::kTagSilent);
        sims_.push_back(std::move(m));
    }
}

void
SetShardSim::scatter(Span &span) const
{
    // A counting sort per line size: buffers sized exactly, so a window
    // costs what it holds.
    const size_t n = span.addrs.size();
    const uint64_t mask = keys_ - 1;
    span.byKey.resize(lineShifts_.size() * n);
    span.start.assign(lineShifts_.size() * (keys_ + 1), 0);
    for (size_t l = 0; l < lineShifts_.size(); ++l) {
        const unsigned shift = lineShifts_[l];
        size_t *start = &span.start[l * (keys_ + 1)];
        for (Addr a : span.addrs)
            ++start[((a >> shift) & mask) + 1];
        for (unsigned b = 0; b < keys_; ++b)
            start[b + 1] += start[b];
        std::vector<size_t> next(start, start + keys_);
        Addr *out = &span.byKey[l * n];
        for (Addr a : span.addrs)
            out[next[(a >> shift) & mask]++] = a;
    }
}

void
SetShardSim::replay(size_t sim, const Span *spans, size_t n)
{
    // Each sim consumes the whole window, so its table stays hot.
    Member &m = sims_[sim];
    for (size_t s = 0; s < n; ++s) {
        const Span &span = spans[s];
        if (m.lineKey == kWholeSpans) {
            m.sim.accessRange(span.addrs.data(), span.addrs.size());
            continue;
        }
        const Addr *sorted = &span.byKey[m.lineKey * span.addrs.size()];
        const size_t *start = &span.start[m.lineKey * (keys_ + 1)];
        for (unsigned b = m.shard; b < keys_; b += shards_)
            m.sim.accessRange(sorted + start[b], start[b + 1] - start[b]);
    }
}

std::vector<CacheStats>
SetShardSim::shardStats(unsigned shard) const
{
    std::vector<CacheStats> out(configs_);
    for (const Member &m : sims_)
        if (m.shard == shard)
            out[m.config] = m.sim.stats();
    return out;
}

std::vector<CacheStats>
SetShardSim::stats() const
{
    std::vector<CacheStats> out(configs_);
    for (const Member &m : sims_) {
        const CacheStats &s = m.sim.stats();
        CacheStats &o = out[m.config];
        o.accesses += s.accesses;
        o.misses += s.misses;
        o.coldMisses += s.coldMisses;
        o.evictions += s.evictions;
    }
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

void
LruStackOracle::fenwickAdd(size_t pos, int delta)
{
    for (size_t i = pos + 1; i <= tree_.size(); i += i & (~i + 1))
        tree_[i - 1] +=
            static_cast<uint64_t>(static_cast<int64_t>(delta));
}

uint64_t
LruStackOracle::fenwickSuffix(size_t pos) const
{
    uint64_t prefix = 0;
    for (size_t i = pos + 1; i > 0; i -= i & (~i + 1))
        prefix += tree_[i - 1];
    // One live timestamp per line, so total live = map size (queried
    // before any insert of the current line).
    return lastTime_.size() - prefix;
}

void
LruStackOracle::compact()
{
    std::vector<std::pair<uint64_t, uint64_t>> live; // (time, line)
    live.reserve(lastTime_.size());
    lastTime_.forEach(
        [&](uint64_t line, uint64_t t) { live.emplace_back(t, line); });
    std::sort(live.begin(), live.end());

    present_.assign(live.size() * 2 + 64, false);
    tree_.assign(present_.size(), 0);
    now_ = 0;
    for (const auto &[t, line] : live) {
        *lastTime_.find(line) = now_;
        present_[now_] = true;
        fenwickAdd(now_, 1);
        ++now_;
    }
}

void
LruStackOracle::ensureRoom()
{
    if (now_ < tree_.size())
        return;
    if (lastTime_.size() * 2 + 64 < tree_.size()) {
        compact();
        return;
    }
    size_t new_size = tree_.size() ? tree_.size() * 2 : 1024;
    std::vector<bool> old_present = present_;
    present_.assign(new_size, false);
    tree_.assign(new_size, 0);
    for (size_t i = 0; i < old_present.size(); ++i) {
        if (old_present[i]) {
            present_[i] = true;
            fenwickAdd(i, 1);
        }
    }
}

void
LruStackOracle::moveToTop(uint64_t *slot)
{
    present_[*slot] = false;
    fenwickAdd(*slot, -1);
    *slot = now_;
    present_[now_] = true;
    fenwickAdd(now_, 1);
    ++now_;
}

uint64_t
LruStackOracle::touch(uint64_t line)
{
    ensureRoom();
    uint64_t *slot = lastTime_.find(line);
    if (!slot) {
        lastTime_.insert(line, now_);
        present_[now_] = true;
        fenwickAdd(now_, 1);
        ++now_;
        return 0;
    }
    uint64_t dist = fenwickSuffix(*slot) + 1;
    moveToTop(slot);
    return dist;
}

void
LruStackOracle::promote(uint64_t line)
{
    ensureRoom();
    uint64_t *slot = lastTime_.find(line);
    panic_if(!slot, "promote of line ", line,
             " absent from the oracle stack");
    moveToTop(slot);
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
