#include "cache/stack_dist.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bits.hh"

namespace texcache {

// ---- Recency index -------------------------------------------------

void
RecencyIndex::push(uint64_t line, uint64_t *slot)
{
    // A renumber rewrites map values but never moves a slot, so @p
    // slot survives it.
    if (now_ == lineAt_.size())
        renumber();
    if (slot)
        *slot = now_;
    else
        time_.insert(line, now_);
    lineAt_[now_] = line;
    for (uint64_t i = now_ + 1; i <= tree_.size(); i += i & (~i + 1))
        ++tree_[i - 1];
    ++now_;
    ++held_;
}

void
RecencyIndex::renumber()
{
    // Slide the held lines down to [0, held_), in order. Each lands at
    // or below its old timestamp, so one forward scan moves them in
    // place.
    uint64_t t = 0;
    for (uint64_t old = 0; old < now_; ++old) {
        const uint64_t line = lineAt_[old];
        if (line == kGone)
            continue;
        *time_.find(line) = t;
        lineAt_[t++] = line;
    }
    now_ = held_;
    ++renumbers_;

    const uint64_t cap = std::bit_ceil(std::max(4 * held_, kMinCapacity));
    lineAt_.resize(cap);
    std::fill(lineAt_.begin() + held_, lineAt_.end(), kGone);
    // The held timestamps are the prefix [0, held_), so node i
    // (1-based), which counts the timestamps in [i - lowbit(i), i),
    // holds that range's overlap with the prefix.
    tree_.resize(cap);
    for (uint64_t i = 1; i <= cap; ++i) {
        const uint64_t lo = i - (i & (~i + 1));
        const uint64_t hi = std::min(i, held_);
        tree_[i - 1] = static_cast<uint32_t>(hi > lo ? hi - lo : 0);
    }
}

// ---- Profiler ------------------------------------------------------

StackDistProfiler::StackDistProfiler(unsigned line_bytes)
{
    fatal_if(!isPowerOfTwo(line_bytes), "line size ", line_bytes,
             " not a power of two");
    lineShift_ = log2Exact(line_bytes);
    hist_.resize(kTopK + 1, 0); // top-of-stack distances need no resize
    top_.fill(kNoLine);
}

void
StackDistProfiler::accessRange(const Addr *a, size_t n)
{
    // The top of the stack stays in locals for the whole batch. The
    // accessed line goes to the front, and the line it displaces is
    // carried down, each position taking the line above it, until the
    // carry is the accessed line itself (a hit at that depth) or falls
    // off the end (the accessed line is below the top).
    uint64_t t0 = top_[0], t1 = top_[1], t2 = top_[2], t3 = top_[3];
    uint64_t t4 = top_[4], t5 = top_[5], t6 = top_[6], t7 = top_[7];
    const unsigned shift = lineShift_;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t line = a[i] >> shift;
        uint64_t c = std::exchange(t0, line);
        size_t d = 1;
        auto carry = [&](uint64_t &t) {
            ++d;
            std::swap(c, t);
            return c == line;
        };
        if (c == line || carry(t1) || carry(t2) || carry(t3) ||
            carry(t4) || carry(t5) || carry(t6) || carry(t7))
            ++hist_[d];
        else
            belowTop(line, c);
    }
    top_ = {t0, t1, t2, t3, t4, t5, t6, t7};
    accesses_ += n;
}

void
StackDistProfiler::belowTop(uint64_t line, uint64_t demoted)
{
    // Every indexed line is older than the kTopK lines of the full top,
    // so a line found in the index has distance (indexed lines newer
    // than it) + kTopK + 1. A line the top and the index both lack was
    // never seen.
    if (uint64_t *slot = index_.find(line)) {
        const uint64_t dist = index_.newerThan(slot) + kTopK + 1;
        index_.remove(slot);
        if (hist_.size() <= dist)
            hist_.resize(dist + 1, 0);
        ++hist_[dist];
    } else {
        ++cold_;
        if (firstTouchLog_)
            firstTouchLog_->push_back(line);
    }
    if (demoted != kNoLine)
        index_.push(demoted);
}

std::vector<uint64_t>
StackDistProfiler::stackOrder() const
{
    std::vector<uint64_t> order;
    order.reserve(index_.size() + kTopK);
    index_.forEachOldestFirst([&](uint64_t line) { order.push_back(line); });
    for (size_t i = kTopK; i-- > 0;)
        if (top_[i] != kNoLine)
            order.push_back(top_[i]);
    return order;
}

uint64_t
StackDistProfiler::misses(uint64_t size_bytes) const
{
    uint64_t capacity = size_bytes >> lineShift_;
    uint64_t m = cold_;
    for (uint64_t d = capacity + 1; d < hist_.size(); ++d)
        m += hist_[d];
    return m;
}

} // namespace texcache
