/** @file Tests for chunked trace file round-tripping and typed
 *  rejection (trace/chunked_trace.hh). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "trace/chunked_trace.hh"

using namespace texcache;

namespace {

TexelTrace
sampleTrace(size_t n)
{
    TexelTrace t;
    for (size_t i = 0; i < n; ++i) {
        TexelRecord r;
        r.texture = static_cast<uint16_t>(i % 51);
        r.level = static_cast<uint16_t>(i % 11);
        r.u = static_cast<uint16_t>((i * 37) & 0x3ff);
        r.v = static_cast<uint16_t>((i * 101) & 0x3ff);
        r.kind = static_cast<TouchKind>(i % 4);
        t.append(r);
    }
    return t;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

/** Write a finalized chunked file of @p n sample records. */
std::string
writeChunked(const char *name, size_t n, uint32_t chunk_records = 256)
{
    std::string path = tempPath(name);
    TexelTrace t = sampleTrace(n);
    ChunkedTraceWriter w(path, chunk_records);
    // Append in awkward spans so writes straddle chunk boundaries.
    size_t i = 0;
    while (i < t.size()) {
        size_t take = std::min<size_t>(t.size() - i, 173);
        w.append(t.packed().data() + i, take);
        i += take;
    }
    w.finalize();
    return path;
}

/** Patch @p len bytes at @p off in place. */
void
patchFile(const std::string &path, uint64_t off, const void *bytes,
          size_t len)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(static_cast<const char *>(bytes),
            static_cast<std::streamsize>(len));
}

TraceFileError
mustFail(const std::string &path)
{
    ChunkedTraceFile f;
    TraceFileError err;
    EXPECT_FALSE(f.open(path, err)) << path;
    return err;
}

} // namespace

TEST(ChunkedTrace, RoundTripsExactly)
{
    size_t n = 10007; // deliberately not a chunk multiple
    std::string path = writeChunked("chunked_roundtrip.ctrace", n);
    ChunkedTraceFile f = ChunkedTraceFile::mustOpen(path);
    EXPECT_EQ(f.info().records, n);
    EXPECT_EQ(f.info().chunkRecords, 256u);
    EXPECT_TRUE(f.info().finalized);
    EXPECT_EQ(f.info().chunks(), (n + 255) / 256);

    TexelTrace want = sampleTrace(n);
    TexelTrace back = f.readAll();
    ASSERT_EQ(back.size(), want.size());
    EXPECT_TRUE(back.packed() == want.packed());

    // A chunk subrange visits exactly those records, in order.
    std::vector<uint64_t> got;
    f.visitChunks(3, 7, [&](const uint64_t *recs, size_t cnt) {
        got.insert(got.end(), recs, recs + cnt);
    });
    ASSERT_EQ(got.size(), 4u * 256u);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want.packed()[3 * 256 + i]) << i;
    std::remove(path.c_str());
}

TEST(ChunkedTrace, EmptyFileRoundTrips)
{
    std::string path = writeChunked("chunked_empty.ctrace", 0);
    ChunkedTraceFile f = ChunkedTraceFile::mustOpen(path);
    EXPECT_EQ(f.info().records, 0u);
    EXPECT_EQ(f.info().chunks(), 0u);
    EXPECT_EQ(f.readAll().size(), 0u);
    std::remove(path.c_str());
}

TEST(ChunkedTrace, MissingFileReportsOffsetZero)
{
    TraceFileError err = mustFail(tempPath("nope.ctrace"));
    EXPECT_EQ(err.offset, 0u);
    EXPECT_NE(err.reason.find("cannot open"), std::string::npos)
        << err.str();
}

TEST(ChunkedTrace, TruncatedHeaderReportsFileSize)
{
    std::string path = tempPath("chunked_short.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        out << "TEXCHK01\x01";
    }
    TraceFileError err = mustFail(path);
    EXPECT_EQ(err.offset, 9u);
    EXPECT_NE(err.reason.find("truncated header"), std::string::npos)
        << err.str();
    std::remove(path.c_str());
}

TEST(ChunkedTrace, BadMagicReportsOffsetZero)
{
    std::string path = writeChunked("chunked_magic.ctrace", 100);
    patchFile(path, 0, "TEXWRONG", 8);
    TraceFileError err = mustFail(path);
    EXPECT_EQ(err.offset, 0u);
    EXPECT_NE(err.reason.find("magic"), std::string::npos) << err.str();
    std::remove(path.c_str());
}

TEST(ChunkedTrace, BadVersionReportsItsOffset)
{
    std::string path = writeChunked("chunked_version.ctrace", 100);
    uint32_t v = 99;
    patchFile(path, 8, &v, sizeof(v));
    TraceFileError err = mustFail(path);
    EXPECT_EQ(err.offset, 8u);
    EXPECT_NE(err.reason.find("version"), std::string::npos)
        << err.str();
    std::remove(path.c_str());
}

TEST(ChunkedTrace, NonPowerOfTwoChunkSizeReportsItsOffset)
{
    std::string path = writeChunked("chunked_chunksz.ctrace", 100);
    uint32_t c = 300;
    patchFile(path, 12, &c, sizeof(c));
    TraceFileError err = mustFail(path);
    EXPECT_EQ(err.offset, 12u);
    std::remove(path.c_str());
}

TEST(ChunkedTrace, UnfinalizedWriterLeavesRejectableFile)
{
    // A writer that dies before finalize() (crash, kill) must leave a
    // file readers refuse, not a silently-short trace.
    std::string path = tempPath("chunked_torn.ctrace");
    {
        TexelTrace t = sampleTrace(1000);
        ChunkedTraceWriter w(path, 256);
        w.append(t.packed().data(), t.size());
        // no finalize()
    }
    TraceFileError err = mustFail(path);
    EXPECT_EQ(err.offset, 24u);
    EXPECT_NE(err.reason.find("never finalized"), std::string::npos)
        << err.str();
    std::remove(path.c_str());
}

TEST(ChunkedTrace, TruncatedPayloadReportsClaimVsActual)
{
    std::string path = writeChunked("chunked_chop.ctrace", 1000);
    uint64_t full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 720);
    TraceFileError err = mustFail(path);
    EXPECT_EQ(err.offset, full - 720);
    EXPECT_NE(err.reason.find("truncated payload"), std::string::npos)
        << err.str();
    EXPECT_NE(err.reason.find("1000"), std::string::npos) << err.str();
    std::remove(path.c_str());
}

TEST(ChunkedTrace, MustOpenDiesWithOffsetAndReason)
{
    std::string path = writeChunked("chunked_die.ctrace", 100);
    patchFile(path, 0, "TEXWRONG", 8);
    EXPECT_EXIT(ChunkedTraceFile::mustOpen(path),
                ::testing::ExitedWithCode(1), "offset 0");
    std::remove(path.c_str());
}
