/**
 * @file
 * Trace capture and offline replay tool.
 *
 * Mirrors the paper's methodology split: capture the texel-coordinate
 * trace of a benchmark frame once, then sweep cache organizations over
 * the saved trace without re-rendering. Traces are chunked .ctrace
 * files (trace/chunked_trace.hh): `capture` streams the render to disk
 * and `replay` streams the file through the replay engine, so neither
 * holds the trace in memory.
 *
 * Usage:
 *   trace_tool capture <scene> <out.ctrace> [horizontal|vertical]
 *   trace_tool stats   <in.ctrace>
 *   trace_tool replay  <scene> <in.ctrace> <size_bytes> <line_bytes>
 *                      <assoc|full>
 *
 * `replay` needs the scene name again because the trace stores texel
 * coordinates, not addresses: the memory representation (here: the
 * paper's padded blocked layout) is applied at replay time. A file the
 * chunked reader rejects makes `stats` and `replay` exit non-zero with
 * the reader's "offset N: reason".
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/shard_replay.hh"
#include "trace/chunked_trace.hh"
#include "trace/trace_source.hh"
#include "trace/trace_stats.hh"

using namespace texcache;

namespace {

[[noreturn]] void
usage()
{
    std::cerr << "usage:\n"
                 "  trace_tool capture <scene> <out.ctrace> "
                 "[horizontal|vertical]\n"
                 "  trace_tool stats <in.ctrace>\n"
                 "  trace_tool replay <scene> <in.ctrace> <size> <line> "
                 "<assoc|full>\n"
                 "scenes: flight town guitar goblet\n";
    std::exit(1);
}

BenchScene
parseScene(const std::string &s)
{
    if (s == "flight")
        return BenchScene::Flight;
    if (s == "town")
        return BenchScene::Town;
    if (s == "guitar")
        return BenchScene::Guitar;
    if (s == "goblet")
        return BenchScene::Goblet;
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    std::string cmd = argv[1];

    if (cmd == "capture") {
        if (argc < 4)
            usage();
        Scene scene = makeScene(parseScene(argv[2]));
        RasterOrder order;
        if (argc > 4 && std::string(argv[4]) == "vertical")
            order.dir = ScanDirection::Vertical;
        ChunkedTraceWriter writer(argv[3]);
        RenderOptions opts;
        opts.writeFramebuffer = false;
        opts.traceSink = &writer;
        render(scene, order, opts);
        writer.finalize();
        std::cout << "captured " << writer.written() << " texel "
                  << "accesses from " << scene.name << " to " << argv[3]
                  << "\n";
        return 0;
    }

    if (cmd == "stats") {
        ChunkedTraceFile file;
        TraceFileError err;
        if (!file.open(argv[2], err)) {
            std::cerr << "trace_tool: " << argv[2] << ": " << err.str()
                      << "\n";
            return 1;
        }
        TraceStats stats = analyzeTrace(file.readAll());
        TextTable table("trace statistics");
        table.header({"Metric", "Value"});
        table.row({"accesses", std::to_string(stats.accesses)});
        table.row({"texture runs", std::to_string(stats.textureRuns)});
        table.row({"avg runlength",
                   fmtFixed(stats.averageRunlength(), 0)});
        table.row({"acc/texel trilinear-lower",
                   fmtFixed(stats.trilinearLower.accessesPerTexel(),
                            2)});
        table.row({"acc/texel trilinear-upper",
                   fmtFixed(stats.trilinearUpper.accessesPerTexel(),
                            2)});
        table.row({"acc/texel bilinear",
                   fmtFixed(stats.bilinear.accessesPerTexel(), 2)});
        table.print(std::cout);
        return 0;
    }

    if (cmd == "replay") {
        if (argc < 7)
            usage();
        Scene scene = makeScene(parseScene(argv[2]));
        FileTraceSource src(argv[3]);
        CacheConfig cache;
        cache.sizeBytes =
            static_cast<uint64_t>(std::atoll(argv[4]));
        cache.lineBytes = static_cast<unsigned>(std::atoi(argv[5]));
        cache.assoc = std::string(argv[6]) == "full"
                          ? CacheConfig::kFullyAssoc
                          : static_cast<unsigned>(std::atoi(argv[6]));

        LayoutParams params;
        params.kind = LayoutKind::PaddedBlocked;
        params.blockW = params.blockH = 8;
        SceneLayout layout(scene, params);

        CacheStats stats = runCacheSharded(src, layout, cache);
        std::cout << cache.str() << ": " << stats.accesses
                  << " accesses, " << stats.misses << " misses ("
                  << fmtPercent(stats.missRate()) << "), "
                  << stats.coldMisses << " cold\n";
        return 0;
    }

    usage();
}
