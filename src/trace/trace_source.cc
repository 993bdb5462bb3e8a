#include "trace/trace_source.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace texcache {

MemoryTraceSource::MemoryTraceSource(const TexelTrace &trace,
                                     uint64_t frames,
                                     uint32_t chunk_records)
    : trace_(trace), frames_(frames), chunkRecords_(chunk_records)
{
    fatal_if(!frames, "trace source with zero frames");
    fatal_if(!chunk_records || !isPowerOfTwo(chunk_records),
             "chunk size ", chunk_records, " not a power of two");
    perFrame_ =
        (trace.size() + chunkRecords_ - 1) / chunkRecords_;
}

uint64_t
MemoryTraceSource::records() const
{
    return trace_.size() * frames_;
}

uint64_t
MemoryTraceSource::chunkCount() const
{
    return perFrame_ * frames_;
}

uint64_t
MemoryTraceSource::records(uint64_t begin, uint64_t end) const
{
    uint64_t n = 0;
    for (uint64_t c = begin; c < end; ++c)
        n += std::min<uint64_t>(chunkRecords_,
                                trace_.size() -
                                    c % perFrame_ * chunkRecords_);
    return n;
}

void
MemoryTraceSource::visitChunks(
    uint64_t begin, uint64_t end,
    const std::function<void(const uint64_t *, size_t)> &fn) const
{
    panic_if(begin > end || end > chunkCount(), "chunk range [", begin,
             ", ", end, ") of ", chunkCount());
    const uint64_t *base = trace_.packed().data();
    for (uint64_t c = begin; c < end; ++c) {
        uint64_t idx = c % perFrame_; // chunk within its frame
        uint64_t b = idx * chunkRecords_;
        uint64_t n =
            std::min<uint64_t>(chunkRecords_, trace_.size() - b);
        fn(base + b, n);
    }
}

FileTraceSource::FileTraceSource(const std::string &path,
                                 uint64_t frames)
    : file_(ChunkedTraceFile::mustOpen(path)), frames_(frames)
{
    fatal_if(!frames, "trace source with zero frames");
}

uint64_t
FileTraceSource::records() const
{
    return file_.info().records * frames_;
}

uint64_t
FileTraceSource::chunkCount() const
{
    return file_.info().chunks() * frames_;
}

uint64_t
FileTraceSource::records(uint64_t begin, uint64_t end) const
{
    const uint64_t per_frame = file_.info().chunks();
    const uint64_t size = file_.info().chunkRecords;
    uint64_t n = 0;
    for (uint64_t c = begin; c < end; ++c)
        n += std::min(size, file_.info().records - c % per_frame * size);
    return n;
}

void
FileTraceSource::visitChunks(
    uint64_t begin, uint64_t end,
    const std::function<void(const uint64_t *, size_t)> &fn) const
{
    panic_if(begin > end || end > chunkCount(), "chunk range [", begin,
             ", ", end, ") of ", chunkCount());
    uint64_t perFrame = file_.info().chunks();
    // Visit per frame-aligned sub-range so each pass through the file
    // is one sequential cursor.
    uint64_t c = begin;
    while (c < end) {
        uint64_t idx = c % perFrame;
        uint64_t n = std::min(end - c, perFrame - idx);
        file_.visitChunks(idx, idx + n, fn);
        c += n;
    }
}

} // namespace texcache
