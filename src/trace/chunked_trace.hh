/**
 * @file
 * Chunked on-disk texel traces: the one trace file format (the trace
 * cache, spills, trace_tool).
 *
 * Neither generating nor replaying a trace file needs the trace in
 * RAM: a ChunkedTraceWriter is a TraceSink the render pipeline streams
 * records into as they are produced, and a ChunkedTraceFile hands the
 * records back one fixed-size chunk at a time through a bounded mmap
 * window (sequential-advised, unmapped as the cursor advances), so
 * peak RSS - and, under ulimit -v, peak address space - stays O(one
 * window) regardless of trace length.
 *
 * Format (little-endian), 32-byte header followed by packed 64-bit
 * TexelRecords (texel_trace.hh layout), chunkRecords per chunk with a
 * partial final chunk:
 *   [0..7]   magic "TEXCHK01"
 *   [8..11]  uint32 version (1)
 *   [12..15] uint32 chunkRecords (power of two)
 *   [16..23] uint64 record count
 *   [24..27] uint32 flags (bit 0: finalized)
 *   [28..31] uint32 reserved (0)
 *
 * The writer emits the header with the finalized bit clear and
 * rewrites it in finalize(), so a crash mid-spill leaves a file that
 * readers reject ("writer never finalized") instead of a silently
 * short trace. Readers validate everything up front and report
 * corruption as a typed TraceFileError (byte offset + reason) rather
 * than reading past the end of a short file.
 */

#ifndef TEXCACHE_TRACE_CHUNKED_TRACE_HH
#define TEXCACHE_TRACE_CHUNKED_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/texel_trace.hh"

namespace texcache {

/** Why a chunked trace file was rejected, and where. */
struct TraceFileError
{
    uint64_t offset = 0; ///< byte offset of the problem
    std::string reason;

    /** "offset N: reason" - the form fatal() paths and tests use. */
    std::string str() const;
};

/** Parsed header of a chunked trace file. */
struct ChunkedTraceInfo
{
    uint32_t version = 0;
    uint32_t chunkRecords = 0;
    uint64_t records = 0;
    bool finalized = false;

    /** Chunks in the file (last one possibly partial). */
    uint64_t
    chunks() const
    {
        return chunkRecords
                   ? (records + chunkRecords - 1) / chunkRecords
                   : 0;
    }
};

/** Records per chunk unless a writer overrides it; matches the replay
 *  loops' SceneLayout::kMapChunk span so one chunk is one map span. */
constexpr uint32_t kDefaultChunkRecords = 1u << 16;

/**
 * Streaming writer: buffers one chunk, appends it to disk when full.
 * I/O failures on our own write path are fatal(); the typed-error
 * surface is the *reader's*, where corrupt input is an expected
 * condition.
 */
class ChunkedTraceWriter : public TraceSink
{
  public:
    explicit ChunkedTraceWriter(const std::string &path,
                                uint32_t chunk_records =
                                    kDefaultChunkRecords);
    ~ChunkedTraceWriter() override;

    ChunkedTraceWriter(const ChunkedTraceWriter &) = delete;
    ChunkedTraceWriter &operator=(const ChunkedTraceWriter &) = delete;

    void append(const uint64_t *records, size_t n) override;

    /** Records appended so far. */
    uint64_t written() const { return written_; }

    /**
     * Flush the tail chunk and rewrite the header with the final
     * record count and the finalized bit. Until this runs the file on
     * disk is deliberately unreadable (see header comment). Must be
     * called exactly once; the destructor closes an unfinalized file
     * as-is so a crashed spill stays detectable.
     */
    void finalize();

  private:
    void flushBuffer();

    std::string path_;
    uint32_t chunkRecords_;
    std::FILE *file_ = nullptr;
    std::vector<uint64_t> buf_;
    uint64_t written_ = 0;
    bool finalized_ = false;
};

/**
 * Validated read handle over a chunked trace file. visitChunks() is
 * const and uses only positioned reads / private mappings, so any
 * number of threads may stream disjoint (or identical) chunk ranges
 * through one open file concurrently - that is how sharded replay
 * gives every worker its own cursor.
 */
class ChunkedTraceFile
{
  public:
    ChunkedTraceFile() = default;
    ~ChunkedTraceFile();

    ChunkedTraceFile(ChunkedTraceFile &&other) noexcept;
    ChunkedTraceFile &operator=(ChunkedTraceFile &&other) noexcept;

    /**
     * Open and fully validate @p path. Returns false and fills
     * @p err (offset + reason) on any defect: unreadable file, short
     * or bad header, unsupported version, unfinalized writer, or a
     * payload whose size disagrees with the header's record count.
     */
    bool open(const std::string &path, TraceFileError &err);

    /** open() that fatal()s with the typed error's offset + reason. */
    static ChunkedTraceFile mustOpen(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }
    const ChunkedTraceInfo &info() const { return info_; }
    const std::string &path() const { return path_; }

    /**
     * Stream chunks [begin, end) in order: fn(records, count) per
     * chunk. Chunks are presented through a bounded mapping window
     * (madvise-sequential, dropped as the cursor advances), with a
     * plain pread fallback where mmap is unavailable; peak memory is
     * O(window), independent of the range length.
     */
    void visitChunks(uint64_t begin, uint64_t end,
                     const std::function<void(const uint64_t *, size_t)>
                         &fn) const;

    /** Materialize the whole file - the non-streamed path (tests and
     *  the small-RAM smoke's deliberate failure mode). */
    TexelTrace readAll() const;

  private:
    void close();

    int fd_ = -1;
    std::string path_;
    ChunkedTraceInfo info_;
};

} // namespace texcache

#endif // TEXCACHE_TRACE_CHUNKED_TRACE_HH
