/**
 * @file
 * Uniform chunked access to a texel-record stream.
 *
 * The sharded replay engine (core/shard_replay.hh) consumes traces as
 * a sequence of fixed-size chunks of packed records so it can (a)
 * stream them - no full materialization - and (b) partition them into
 * contiguous chunk ranges for parallel workers. A TraceSource is that
 * chunk sequence, whether the records live in RAM (MemoryTraceSource
 * over a TexelTrace) or on disk (FileTraceSource over a chunked trace
 * file, the streamed path).
 *
 * Both sources take a frame-replication count: the logical stream is
 * the underlying records repeated `frames` times back to back, which
 * is how multi-frame (animated-stream surrogate) workloads reach 10^9
 * accesses from one rendered frame without a 10^9-record file. Chunk
 * indices run over the whole logical stream (frames x per-frame
 * chunks), so replication is invisible to consumers.
 *
 * visitChunks() is const and reentrant: concurrent workers may stream
 * overlapping ranges of one source (each file visit maps its own
 * bounded window; the memory source just aliases the vector).
 */

#ifndef TEXCACHE_TRACE_TRACE_SOURCE_HH
#define TEXCACHE_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "trace/chunked_trace.hh"
#include "trace/texel_trace.hh"

namespace texcache {

/** A logical record stream presented as fixed-size chunks. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Total logical records (frame replication folded in). */
    virtual uint64_t records() const = 0;

    /** Total logical chunks (frame replication folded in). */
    virtual uint64_t chunkCount() const = 0;

    /** Records in chunks [begin, end). */
    virtual uint64_t records(uint64_t begin, uint64_t end) const = 0;

    /** Stream chunks [begin, end) in order: fn(records, count). */
    virtual void
    visitChunks(uint64_t begin, uint64_t end,
                const std::function<void(const uint64_t *, size_t)> &fn)
        const = 0;
};

/** TraceSource over an in-memory TexelTrace (zero-copy). */
class MemoryTraceSource final : public TraceSource
{
  public:
    explicit MemoryTraceSource(const TexelTrace &trace,
                               uint64_t frames = 1,
                               uint32_t chunk_records =
                                   kDefaultChunkRecords);

    uint64_t records() const override;
    uint64_t chunkCount() const override;
    uint64_t records(uint64_t begin, uint64_t end) const override;
    void visitChunks(uint64_t begin, uint64_t end,
                     const std::function<void(const uint64_t *, size_t)>
                         &fn) const override;

  private:
    const TexelTrace &trace_;
    uint64_t frames_;
    uint32_t chunkRecords_;
    uint64_t perFrame_; ///< chunks per frame
};

/** TraceSource over a chunked on-disk trace file (streamed). */
class FileTraceSource final : public TraceSource
{
  public:
    /** Opens @p path; fatal()s with the typed offset+reason error on
     *  a truncated or corrupt file. */
    explicit FileTraceSource(const std::string &path,
                             uint64_t frames = 1);

    uint64_t records() const override;
    uint64_t chunkCount() const override;
    uint64_t records(uint64_t begin, uint64_t end) const override;
    void visitChunks(uint64_t begin, uint64_t end,
                     const std::function<void(const uint64_t *, size_t)>
                         &fn) const override;

    const ChunkedTraceFile &file() const { return file_; }

  private:
    ChunkedTraceFile file_;
    uint64_t frames_;
};

} // namespace texcache

#endif // TEXCACHE_TRACE_TRACE_SOURCE_HH
