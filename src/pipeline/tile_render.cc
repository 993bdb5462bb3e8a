#include "pipeline/tile_render.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/sweep.hh"
#include "pipeline/clip.hh"
#include "pipeline/viewport.hh"
#include "raster/hilbert.hh"
#include "raster/span_rasterizer.hh"
#include "simd/span_kernels.hh"
#include "tracing/tracing.hh"

namespace texcache {

namespace {

/** Strip thickness for the whole-screen scanline orders: thick enough
 *  to amortize per-unit overhead, thin enough that 8 workers load-
 *  balance on an 800-pixel screen. A tiled order's work unit holds
 *  about as many pixels as one such strip. */
constexpr int kStripSize = 16;

/** Hilbert tile edge. Origin-aligned power-of-two blocks occupy
 *  contiguous index ranges on the curve, so whole blocks can be
 *  ordered by the index of any member cell. */
constexpr int kHilbertBlock = 32;

/** Must match visitHilbert in raster/rasterizer.cc. */
constexpr unsigned kHilbertOrder = 11;

/** One post-clip screen triangle ready to rasterize. */
struct RasterTask
{
    TriangleSetup setup;
    PixelRect box;      ///< screen-clipped bounding box (non-empty)
    uint32_t sceneTri;  ///< index of the *input* scene triangle
    uint16_t texture;
    float texW;         ///< level-0 texture dimensions (LOD scaling)
    float texH;

    RasterTask(const TriangleSetup &s, const PixelRect &b, uint32_t tri,
               uint16_t tex, float tw, float th)
        : setup(s), box(b), sceneTri(tri), texture(tex), texW(tw),
          texH(th)
    {}
};

/**
 * Pixel boundaries cutting [0, extent) into runs of whole tiles of
 * size @p tile, at most @p run tiles each and as even as whole tiles
 * allow: run k covers [cuts[k], cuts[k + 1]).
 */
std::vector<int>
axisCuts(int extent, int tile, int64_t run)
{
    int tiles = (extent + tile - 1) / tile;
    int parts = static_cast<int>((tiles + run - 1) / run);
    std::vector<int> cuts(parts + 1);
    for (int k = 0; k <= parts; ++k)
        cuts[k] = static_cast<int>(std::min<int64_t>(
            extent, int64_t(k) * tiles / parts * tile));
    return cuts;
}

/** Pixel coordinate -> index of the run of @p cuts that holds it. */
std::vector<int>
runOfPixel(const std::vector<int> &cuts)
{
    std::vector<int> of(cuts.back());
    for (size_t k = 0; k + 1 < cuts.size(); ++k)
        std::fill(of.begin() + cuts[k], of.begin() + cuts[k + 1],
                  static_cast<int>(k));
    return of;
}

/**
 * The screen's work decomposition for one raster order. The order's
 * own tiles - full-width or full-height strips for the scanline
 * orders, the order's tile grid for tiled orders, 32x32 blocks for
 * Hilbert - are grouped into work units: runs of tiles that follow
 * each other in canonical (serial traversal) order, within one tile
 * row for horizontally-traversed tiles and one tile column for
 * vertically-traversed ones. The units form a grid of rects, with
 * the unit-grid cell -> canonical unit map the binning step uses.
 */
struct WorkGrid
{
    int tw = 0; ///< order-tile size: units split at its multiples
    int th = 0;
    bool hilbert = false;
    int cols = 0;
    std::vector<int> colOfX;          ///< pixel column -> unit column
    std::vector<int> rowOfY;          ///< pixel row -> unit row
    std::vector<uint32_t> posOfCell;  ///< row * cols + col -> unit
    std::vector<PixelRect> rects;     ///< canonical unit -> rect

    uint32_t
    pos(int col, int row) const
    {
        return posOfCell[static_cast<size_t>(row) * cols + col];
    }
};

WorkGrid
buildGrid(unsigned screen_w, unsigned screen_h, const RasterOrder &order)
{
    WorkGrid g;
    int w = static_cast<int>(screen_w);
    int h = static_cast<int>(screen_h);
    const bool horiz = order.dir == ScanDirection::Horizontal;

    // Tiles per unit along the scan direction's between-tile axis:
    // enough for a unit to hold about one scanline strip's pixels, so
    // small tiles stop paying per-unit costs (8x8 tiles get whole tile
    // rows) while large ones keep one tile per unit.
    int64_t run = 1;
    if (order.hilbert) {
        fatal_if(screen_w > (1u << kHilbertOrder) ||
                     screen_h > (1u << kHilbertOrder),
                 "screen ", screen_w, "x", screen_h,
                 " exceeds the Hilbert curve order (",
                 1u << kHilbertOrder, ")");
        g.hilbert = true;
        g.tw = g.th = kHilbertBlock;
    } else if (order.tiled) {
        fatal_if(order.tileW == 0 || order.tileH == 0,
                 "tiled order with zero tile dimensions");
        g.tw = static_cast<int>(order.tileW);
        g.th = static_cast<int>(order.tileH);
        int64_t strip = int64_t(kStripSize) * (horiz ? w : h);
        run = std::max<int64_t>(1, strip / (int64_t(g.tw) * g.th));
    } else if (horiz) {
        g.tw = w;
        g.th = kStripSize;
    } else {
        g.tw = kStripSize;
        g.th = h;
    }
    std::vector<int> xs = axisCuts(w, g.tw, horiz ? run : 1);
    std::vector<int> ys = axisCuts(h, g.th, horiz ? 1 : run);
    g.cols = static_cast<int>(xs.size()) - 1;
    int rows = static_cast<int>(ys.size()) - 1;
    g.colOfX = runOfPixel(xs);
    g.rowOfY = runOfPixel(ys);

    size_t n = static_cast<size_t>(g.cols) * rows;
    std::vector<uint32_t> cellOfPos(n);
    if (g.hilbert) {
        // Canonical block order = curve order. Blocks are disjoint
        // contiguous index ranges, so comparing the origin cells'
        // indices orders the ranges themselves.
        std::vector<std::pair<uint64_t, uint32_t>> blocks;
        blocks.reserve(n);
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < g.cols; ++c)
                blocks.emplace_back(
                    hilbertIndex(kHilbertOrder,
                                 static_cast<uint32_t>(xs[c]),
                                 static_cast<uint32_t>(ys[r])),
                    static_cast<uint32_t>(r) * g.cols + c);
        std::sort(blocks.begin(), blocks.end());
        for (size_t p = 0; p < n; ++p)
            cellOfPos[p] = blocks[p].second;
    } else if (!order.tiled || horiz) {
        // Row strips (one column), column strips (one row) and
        // horizontally-traversed tiles are all row-major.
        for (size_t p = 0; p < n; ++p)
            cellOfPos[p] = static_cast<uint32_t>(p);
    } else {
        // Vertically-traversed tiles: column-major between tiles
        // (Fig 6.4(a)), matching traverseRect.
        size_t p = 0;
        for (int c = 0; c < g.cols; ++c)
            for (int r = 0; r < rows; ++r)
                cellOfPos[p++] = static_cast<uint32_t>(r) * g.cols + c;
    }

    g.posOfCell.resize(n);
    g.rects.resize(n);
    for (size_t p = 0; p < n; ++p) {
        uint32_t cell = cellOfPos[p];
        int c = static_cast<int>(cell) % g.cols;
        int r = static_cast<int>(cell) / g.cols;
        g.posOfCell[cell] = static_cast<uint32_t>(p);
        PixelRect rect;
        rect.x0 = xs[c];
        rect.y0 = ys[r];
        rect.x1 = xs[c + 1] - 1;
        rect.y1 = ys[r + 1] - 1;
        g.rects[p] = rect;
    }
    return g;
}

/** Everything one work unit produces; merged in canonical order. */
struct UnitResult
{
    /** Packed texel records, segment per binned task, in task order. */
    std::vector<uint64_t> records;
    /** Per binned task (aligned with the unit's bin): end offset into
     *  records, and the task's fragment count in this unit. */
    std::vector<uint32_t> segRecEnd;
    std::vector<uint32_t> segFrags;

    uint64_t texelAccesses = 0;
    uint64_t bilinearFragments = 0;
    uint64_t trilinearFragments = 0;
    uint64_t nearestFragments = 0;
    stats::Distribution lod;
};

inline PixelRect
intersect(const PixelRect &a, const PixelRect &b)
{
    PixelRect r;
    r.x0 = std::max(a.x0, b.x0);
    r.y0 = std::max(a.y0, b.y0);
    r.x1 = std::min(a.x1, b.x1);
    r.y1 = std::min(a.y1, b.y1);
    return r;
}

/**
 * Clip, set up and cull every scene triangle, in input order. The
 * geometry statistics replicate renderReference's loop exactly; the
 * fragment-side statistics come from the work units.
 */
std::vector<RasterTask>
setUpTasks(const Scene &scene, RenderStats &stats)
{
    Mat4 mvp = scene.proj * scene.view;
    std::vector<RasterTask> tasks;
    tasks.reserve(scene.triangles.size());
    for (size_t tri_i = 0; tri_i < scene.triangles.size(); ++tri_i) {
        const SceneTriangle &tri = scene.triangles[tri_i];
        ++stats.trianglesIn;
        fatal_if(tri.texture >= scene.textures.size(),
                 "triangle references texture ", tri.texture, " of ",
                 scene.textures.size());
        const MipMap &mip = scene.textures[tri.texture];
        float tex_w = static_cast<float>(mip.width(0));
        float tex_h = static_cast<float>(mip.height(0));

        ClipVertex cv[3];
        for (int i = 0; i < 3; ++i) {
            cv[i].pos = mvp.transformPoint(tri.v[i].pos);
            cv[i].uv = tri.v[i].uv;
            cv[i].shade = tri.v[i].shade;
        }

        ClipVertex poly[4];
        unsigned n = clipNear(cv, poly);
        if (n < 3) {
            ++stats.trianglesculled;
            continue;
        }

        for (unsigned k = 2; k < n; ++k) {
            ScreenVertex a = toScreenVertex(poly[0], scene.screenW,
                                            scene.screenH);
            ScreenVertex b = toScreenVertex(poly[k - 1], scene.screenW,
                                            scene.screenH);
            ScreenVertex c = toScreenVertex(poly[k], scene.screenW,
                                            scene.screenH);
            TriangleSetup setup(a, b, c);
            if (!setup.valid())
                continue;
            ++stats.trianglesRasterized;

            PixelRect box = setup.bounds(scene.screenW, scene.screenH);
            if (!box.empty()) {
                stats.sumBoxWidth += box.x1 - box.x0 + 1;
                stats.sumBoxHeight += box.y1 - box.y0 + 1;
                ++stats.boxSamples;
                tasks.emplace_back(setup, box,
                                   static_cast<uint32_t>(tri_i),
                                   tri.texture, tex_w, tex_h);
            }
        }
    }
    return tasks;
}

/** Tasks binned to the work units their bounding boxes overlap. */
struct Bins
{
    std::vector<std::vector<uint32_t>> tasksOf; ///< unit -> tasks
    /** Task t's units in canonical order: unitsOfTask[unitsEnd[t - 1]
     *  .. unitsEnd[t]). */
    std::vector<uint32_t> unitsOfTask;
    std::vector<uint32_t> unitsEnd;
};

Bins
binTasks(const std::vector<RasterTask> &tasks, const WorkGrid &grid)
{
    Bins b;
    b.tasksOf.resize(grid.rects.size());
    b.unitsEnd.resize(tasks.size());
    for (uint32_t t = 0; t < tasks.size(); ++t) {
        const PixelRect &box = tasks[t].box;
        size_t first = b.unitsOfTask.size();
        for (int r = grid.rowOfY[box.y0]; r <= grid.rowOfY[box.y1]; ++r)
            for (int c = grid.colOfX[box.x0]; c <= grid.colOfX[box.x1];
                 ++c) {
                uint32_t u = grid.pos(c, r);
                b.tasksOf[u].push_back(t);
                b.unitsOfTask.push_back(u);
            }
        // Canonical order for the merge (binning enumerates the grid
        // row-major, which is not canonical for vertically-traversed
        // tiles or the Hilbert curve).
        std::sort(b.unitsOfTask.begin() + first, b.unitsOfTask.end());
        b.unitsEnd[t] = static_cast<uint32_t>(b.unitsOfTask.size());
    }
    return b;
}

} // namespace

const char *
referenceOnlyOption(const RenderOptions &opts)
{
    if (opts.writeFramebuffer)
        return "writeFramebuffer";
    if (opts.countRepetition)
        return "countRepetition";
    if (opts.onFragment)
        return "onFragment";
    if (opts.vtResolve)
        return "vtResolve";
    return nullptr;
}

RenderOutput
renderTiled(const Scene &scene, const RasterOrder &order,
            const RenderOptions &opts)
{
    static const uint16_t kRenderSpan = tracing::nameId("render.frame");
    static const uint16_t kSetupSpan = tracing::nameId("raster.setup");
    static const uint16_t kTileSpan = tracing::nameId("render.tile");
    static const uint16_t kMergeSpan = tracing::nameId("trace.merge");
    const char *refOnly = referenceOnlyOption(opts);
    fatal_if(refOnly, "renderTiled renders traces only; ", refOnly,
             " takes renderReference() (render() routes it there)");
    tracing::ScopedSpan span(kRenderSpan, scene.triangles.size());

    RenderOutput out;

    // ---- Front end: clip, set up and bin triangles (serial) --------
    std::vector<RasterTask> tasks;
    WorkGrid grid;
    Bins bins;
    {
        tracing::ScopedSpan setupSpan(kSetupSpan,
                                      scene.triangles.size());
        tasks = setUpTasks(scene, out.stats);
        grid = buildGrid(scene.screenW, scene.screenH, order);
        bins = binTasks(tasks, grid);
    }
    size_t n_units = grid.rects.size();

    std::vector<uint32_t> work; // canonical units with tasks
    work.reserve(n_units);
    for (uint32_t u = 0; u < n_units; ++u)
        if (!bins.tasksOf[u].empty())
            work.push_back(u);

    // ---- Unit workers (core/sweep pool; deterministic results) -----
    const bool horiz = order.dir == ScanDirection::Horizontal;
    // The batched SIMD kernels of the dispatched ISA level: their
    // per-fragment float sequence is the reference's exactly, so the
    // output stays byte-identical at every level (DESIGN.md section
    // 13).
    const simd::SpanKernels &simdK = simd::kernels();

    auto renderUnit = [&](uint32_t u) -> UnitResult {
        tracing::ScopedSpan unitSpan(kTileSpan, u);
        UnitResult res;
        const PixelRect &urect = grid.rects[u];
        res.segRecEnd.reserve(bins.tasksOf[u].size());
        res.segFrags.reserve(bins.tasksOf[u].size());

        // Hilbert blocks: the block's cells in curve order, computed
        // once per unit and filtered per task (cheaper than the
        // reference's per-triangle bounding-box sort).
        std::vector<std::pair<uint64_t, std::pair<int, int>>> cells;
        if (grid.hilbert) {
            cells.reserve(static_cast<size_t>(urect.x1 - urect.x0 + 1) *
                          (urect.y1 - urect.y0 + 1));
            for (int y = urect.y0; y <= urect.y1; ++y)
                for (int x = urect.x0; x <= urect.x1; ++x)
                    cells.emplace_back(
                        hilbertIndex(kHilbertOrder,
                                     static_cast<uint32_t>(x),
                                     static_cast<uint32_t>(y)),
                        std::make_pair(x, y));
            std::sort(cells.begin(), cells.end());
        }

        uint32_t fragCount = 0;
        const RasterTask *task = nullptr;

        // Covered pixels enter a pending batch in traversal order and
        // flush in order. Batches fill across spans and across the
        // unit's tiles: the paper scenes' triangles average only a
        // handful of pixels per row, so per-span batches would run
        // the wide kernels mostly on tails. One kernel call covers
        // attributes, LOD, level select and address generation for
        // the batch; the flush folds its per-fragment results into
        // the statistics and trace records, in fragment order.
        simd::SpanContext sctx{};
        int32_t bxs[simd::kSpanBatch], bys[simd::kSpanBatch];
        simd::SpanBatchOut bo;
        int pend = 0;
        auto flush = [&]() {
            if (!pend)
                return;
            simdK.touches(sctx, bxs, bys, pend, bo);
            fragCount += static_cast<uint32_t>(pend);
            for (int i = 0; i < pend; ++i) {
                res.texelAccesses += bo.numTouches[i];
                res.lod.sample(bo.firstLevel[i]);
                if (bo.kind[i] == FilterKind::Bilinear)
                    ++res.bilinearFragments;
                else if (bo.kind[i] == FilterKind::Nearest)
                    ++res.nearestFragments;
                else
                    ++res.trilinearFragments;
            }
            if (opts.captureTrace)
                res.records.insert(res.records.end(), bo.records,
                                   bo.records + bo.recEnd[pend - 1]);
            if (tracing::enabled(tracing::kTexels))
                for (int i = 0; i < pend; ++i)
                    tracing::setTexelContext(
                        static_cast<uint16_t>(bxs[i]),
                        static_cast<uint16_t>(bys[i]), task->texture,
                        bo.firstLevel[i], bo.firstU[i], bo.firstV[i]);
            pend = 0;
        };
        auto batchPixel = [&](int x, int y) {
            bxs[pend] = x;
            bys[pend] = y;
            if (++pend == simd::kSpanBatch)
                flush();
        };
        // A unit's tiles follow each other along x (horizontal
        // direction) or y (vertical) in canonical order, so the task's
        // rect is cut at tile boundaries along that axis and each
        // piece scanned in the scan direction - the serial traversal.
        // Interior pixels need no coverage test: coverage along a
        // line is an interval and spanOnLine verified both endpoints.
        auto walkTiles = [&](const PixelRect &r) {
            if (horiz) {
                for (int x0 = r.x0; x0 <= r.x1;) {
                    int x1 = std::min(r.x1, (x0 / grid.tw + 1) * grid.tw - 1);
                    for (int y = r.y0; y <= r.y1; ++y) {
                        int lo = x0, hi = x1;
                        if (spanOnLine(task->setup, true, y, lo, hi))
                            for (int x = lo; x <= hi; ++x)
                                batchPixel(x, y);
                    }
                    x0 = x1 + 1;
                }
            } else {
                for (int y0 = r.y0; y0 <= r.y1;) {
                    int y1 = std::min(r.y1, (y0 / grid.th + 1) * grid.th - 1);
                    for (int x = r.x0; x <= r.x1; ++x) {
                        int lo = y0, hi = y1;
                        if (spanOnLine(task->setup, false, x, lo, hi))
                            for (int y = lo; y <= hi; ++y)
                                batchPixel(x, y);
                    }
                    y0 = y1 + 1;
                }
            }
        };

        for (uint32_t t : bins.tasksOf[u]) {
            task = &tasks[t];
            fragCount = 0;
            PixelRect r = intersect(task->box, urect);
            sctx = simd::makeSpanContext(task->setup,
                                         scene.textures[task->texture],
                                         task->texture, task->texW,
                                         task->texH, opts.filterMode);

            if (grid.hilbert) {
                // Candidate cells in curve order; coverage tested
                // kSpanBatch at a time, survivors batched in order.
                int32_t txs[simd::kSpanBatch];
                int32_t tys[simd::kSpanBatch];
                int cand = 0;
                auto testCand = [&]() {
                    uint32_t m = simdK.coverMask(sctx, txs, tys, cand);
                    for (int i = 0; i < cand; ++i)
                        if (m >> i & 1u)
                            batchPixel(txs[i], tys[i]);
                    cand = 0;
                };
                for (const auto &c : cells) {
                    int x = c.second.first, y = c.second.second;
                    if (x < r.x0 || x > r.x1 || y < r.y0 || y > r.y1)
                        continue;
                    txs[cand] = x;
                    tys[cand] = y;
                    if (++cand == simd::kSpanBatch)
                        testCand();
                }
                if (cand)
                    testCand();
            } else {
                walkTiles(r);
            }
            flush();
            res.segFrags.push_back(fragCount);
            res.segRecEnd.push_back(
                static_cast<uint32_t>(res.records.size()));
        }
        if (tracing::enabled(tracing::kTexels))
            tracing::clearTexelContext();
        return res;
    };

    std::vector<SweepResult<UnitResult>> results;
    if (!work.empty())
        results = Sweep::run(work, renderUnit);

    // ---- Deterministic merge ---------------------------------------
    tracing::ScopedSpan mergeSpan(kMergeSpan, results.size());
    // Order-free statistics first (integer counters, histogram
    // buckets), folded in canonical unit order.
    size_t totalRecords = 0;
    for (const auto &r : results) {
        const UnitResult &ur = r.value;
        out.stats.texelAccesses += ur.texelAccesses;
        out.stats.bilinearFragments += ur.bilinearFragments;
        out.stats.trilinearFragments += ur.trilinearFragments;
        out.stats.nearestFragments += ur.nearestFragments;
        out.stats.lodLevels.merge(ur.lod);
        totalRecords += ur.records.size();
    }

    // The trace is order-sensitive: the serial renderer is triangle-
    // major (raster order applies *within* each triangle's box), so
    // concatenating whole units would interleave triangles wrongly.
    // Instead, every (task, unit) segment lands in (task order,
    // canonical unit order) - exactly the serial traversal. A cheap
    // serial pass assigns each segment its destination offset (and
    // folds the order-sensitive fragment statistics); the segment
    // copies themselves go to disjoint ranges, so they run on the
    // pool.
    std::vector<uint32_t> unitToWork(n_units, 0);
    for (uint32_t i = 0; i < work.size(); ++i)
        unitToWork[work[i]] = i;
    std::vector<uint32_t> cursor(n_units, 0);
    std::vector<uint64_t> triFrags(scene.triangles.size(), 0);
    std::vector<std::vector<size_t>> segDst(results.size());
    for (size_t i = 0; i < results.size(); ++i)
        segDst[i].resize(results[i].value.segRecEnd.size());
    size_t dst = 0;
    for (uint32_t t = 0, k = 0; t < tasks.size(); ++t) {
        for (; k < bins.unitsEnd[t]; ++k) {
            uint32_t u = bins.unitsOfTask[k];
            uint32_t wi = unitToWork[u];
            const UnitResult &ur = results[wi].value;
            uint32_t seg = cursor[u]++;
            uint32_t beg = seg ? ur.segRecEnd[seg - 1] : 0;
            segDst[wi][seg] = dst;
            dst += ur.segRecEnd[seg] - beg;
            if (opts.traceSink && ur.segRecEnd[seg] > beg)
                opts.traceSink->append(ur.records.data() + beg,
                                       ur.segRecEnd[seg] - beg);
            uint64_t frags = ur.segFrags[seg];
            out.stats.fragments += frags;
            triFrags[tasks[t].sceneTri] += frags;
        }
    }
    if (opts.captureTrace && totalRecords && !opts.traceSink) {
        // Every record of the new trace is written by exactly one
        // segment copy, so the trace is not zero-filled first.
        out.trace.resizePacked(totalRecords);
        uint64_t *base = out.trace.mutablePacked();
        std::vector<uint32_t> copyWork(results.size());
        for (uint32_t i = 0; i < copyWork.size(); ++i)
            copyWork[i] = i;
        Sweep::run(copyWork, [&](uint32_t wi) -> int {
            const UnitResult &ur = results[wi].value;
            for (size_t seg = 0; seg < segDst[wi].size(); ++seg) {
                uint32_t beg = seg ? ur.segRecEnd[seg - 1] : 0;
                uint32_t len = ur.segRecEnd[seg] - beg;
                if (len)
                    std::copy_n(ur.records.data() + beg, len,
                                base + segDst[wi][seg]);
            }
            return 0;
        });
    }
    // sumCoveredArea accumulates one exact integer-valued double per
    // input triangle, in input order - the same additions, in the
    // same order, as the reference path.
    for (uint64_t f : triFrags)
        out.stats.sumCoveredArea += static_cast<double>(f);

    return out;
}

} // namespace texcache
