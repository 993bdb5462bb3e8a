#include "cache/cache_sim.hh"

#include "common/table.hh"
#include "tracing/tracing.hh"

namespace texcache {

std::string
CacheConfig::str() const
{
    std::string s = fmtBytes(sizeBytes) + "/" + fmtBytes(lineBytes);
    if (assoc == kFullyAssoc)
        s += "/full";
    else
        s += "/" + std::to_string(assoc) + "way";
    return s;
}

CacheSim::CacheSim(const CacheConfig &config) : config_(config)
{
    fatal_if(!isPowerOfTwo(config.sizeBytes) ||
                 !isPowerOfTwo(config.lineBytes),
             "cache geometry must be powers of two: ", config.str());
    fatal_if(config.lineBytes > config.sizeBytes,
             "line larger than cache: ", config.str());
    lineShift_ = log2Exact(config.lineBytes);
    uint64_t lines = config.numLines();
    if (config.assoc == CacheConfig::kFullyAssoc) {
        if (lines > 64) {
            // The O(ways) scan is hopeless at this size; the hash-map
            // LRU is exact for any fully associative LRU cache.
            fa_ = std::make_unique<FullyAssocLru>(config.sizeBytes,
                                                  config.lineBytes);
            ways_ = 0;
            setMask_ = 0;
            return;
        }
        ways_ = static_cast<unsigned>(lines);
        setMask_ = 0;
    } else {
        fatal_if(lines % config.assoc != 0,
                 "associativity does not divide line count: ",
                 config.str());
        uint64_t sets = lines / config.assoc;
        fatal_if(!isPowerOfTwo(sets), "set count not a power of two: ",
                 config.str());
        ways_ = config.assoc;
        setMask_ = sets - 1;
    }
    table_.assign(config.numSets() * ways_, Way{});
}

CacheSim::~CacheSim() = default;
CacheSim::CacheSim(CacheSim &&) noexcept = default;
CacheSim &CacheSim::operator=(CacheSim &&) noexcept = default;

const CacheStats &
CacheSim::stats() const
{
    return fa_ ? fa_->stats() : stats_;
}

void
CacheSim::setTraceTag(uint16_t tag)
{
    traceTag_ = tag;
    if (fa_)
        fa_->setTraceTag(tag);
}

inline bool
CacheSim::lookup(Way *set, uint64_t line, uint64_t tick, CacheStats &s,
                 bool &cold)
{
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].tag == line) {
            set[w].lastUse = tick;
            return true;
        }
    }

    // Miss: the victim is the first way with the oldest use (invalid
    // ways have never been used, so they go first).
    unsigned victim = 0;
    for (unsigned w = 1; w < ways_; ++w)
        if (set[w].lastUse < set[victim].lastUse)
            victim = w;
    ++s.misses;
    cold = touched_.insert(line);
    if (cold)
        ++s.coldMisses;
    if (set[victim].tag != kInvalid)
        ++s.evictions;
    set[victim].tag = line;
    set[victim].lastUse = tick;
    return false;
}

bool
CacheSim::access(Addr addr)
{
    if (fa_)
        return fa_->access(addr);
    ++stats_.accesses;
    uint64_t line = addr >> lineShift_;
    bool cold = false;
    bool hit = lookup(&table_[(line & setMask_) * ways_], line, ++tick_,
                      stats_, cold);
    if (hit) {
        if (tracing::enabled(tracing::kTexels)) [[unlikely]]
            tracing::cacheHit(addr, traceTag_);
    } else if (tracing::enabled(tracing::kMisses | tracing::kTexels))
        [[unlikely]] {
        tracing::cacheMiss(addr,
                           cold ? tracing::MissClass::Cold
                                : tracing::MissClass::Other,
                           traceTag_);
    }
    return hit;
}

void
CacheSim::accessRange(const Addr *a, size_t n)
{
    if (fa_ || (traceTag_ != tracing::kTagSilent &&
                tracing::enabled(tracing::kMisses | tracing::kTexels))) {
        for (size_t i = 0; i < n; ++i)
            access(a[i]);
        return;
    }
    // Locals, not members: stores into the way table could alias the
    // members, which would force reloading them on every access.
    Way *table = table_.data();
    const unsigned shift = lineShift_;
    const uint64_t mask = setMask_;
    const unsigned ways = ways_;
    CacheStats s = stats_;
    uint64_t tick = tick_;
    for (size_t i = 0; i < n; ++i) {
        uint64_t line = a[i] >> shift;
        bool cold = false;
        lookup(table + (line & mask) * ways, line, ++tick, s, cold);
    }
    s.accesses += n;
    stats_ = s;
    tick_ = tick;
}

void
CacheSim::flush()
{
    if (fa_) {
        fa_->flush();
        return;
    }
    table_.assign(table_.size(), Way{});
    tick_ = 0;
}

void
CacheSim::reset()
{
    if (fa_) {
        fa_->reset();
        return;
    }
    table_.assign(table_.size(), Way{});
    touched_.clear();
    tick_ = 0;
    stats_ = CacheStats{};
}

FullyAssocLru::FullyAssocLru(uint64_t size_bytes, unsigned line_bytes)
{
    fatal_if(!isPowerOfTwo(size_bytes) || !isPowerOfTwo(line_bytes),
             "cache geometry must be powers of two");
    fatal_if(line_bytes > size_bytes, "line larger than cache");
    lineShift_ = log2Exact(line_bytes);
    capacity_ = size_bytes / line_bytes;
    pool_.reserve(capacity_);
}

void
FullyAssocLru::unlink(uint32_t n)
{
    Node &node = pool_[n];
    if (node.prev != kNil)
        pool_[node.prev].next = node.next;
    else
        head_ = node.next;
    if (node.next != kNil)
        pool_[node.next].prev = node.prev;
    else
        tail_ = node.prev;
}

void
FullyAssocLru::pushFront(uint32_t n)
{
    Node &node = pool_[n];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil)
        pool_[head_].prev = n;
    head_ = n;
    if (tail_ == kNil)
        tail_ = n;
}

bool
FullyAssocLru::access(Addr addr)
{
    uint64_t line = addr >> lineShift_;
    ++stats_.accesses;

    auto it = map_.find(line);
    if (it != map_.end()) {
        uint32_t n = it->second;
        if (n != head_) {
            unlink(n);
            pushFront(n);
        }
        if (tracing::enabled(tracing::kTexels)) [[unlikely]]
            tracing::cacheHit(addr, traceTag_);
        return true;
    }

    ++stats_.misses;
    bool cold = touched_.insert(line);
    if (cold)
        ++stats_.coldMisses;
    if (tracing::enabled(tracing::kMisses | tracing::kTexels))
        [[unlikely]]
        tracing::cacheMiss(addr,
                           cold ? tracing::MissClass::Cold
                                : tracing::MissClass::Other,
                           traceTag_);

    uint32_t n;
    if (map_.size() >= capacity_) {
        // Evict the least recently used line and reuse its node.
        ++stats_.evictions;
        n = tail_;
        map_.erase(pool_[n].line);
        unlink(n);
    } else if (!freeList_.empty()) {
        n = freeList_.back();
        freeList_.pop_back();
    } else {
        n = static_cast<uint32_t>(pool_.size());
        pool_.push_back(Node{});
    }
    pool_[n].line = line;
    pushFront(n);
    map_[line] = n;
    return false;
}

void
FullyAssocLru::flush()
{
    pool_.clear();
    freeList_.clear();
    map_.clear();
    head_ = tail_ = kNil;
}

void
FullyAssocLru::reset()
{
    pool_.clear();
    freeList_.clear();
    map_.clear();
    touched_.clear();
    head_ = tail_ = kNil;
    stats_ = CacheStats{};
}

} // namespace texcache
