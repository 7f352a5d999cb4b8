#include "arch/noc.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>

#include "common/logging.hh"

namespace adyna::arch {

namespace {

/** Signed shortest torus offset from a to b over size n: positive
 * steps go in the + direction (increasing index), negative ones in
 * the - direction. The n/2 tie on an even side goes +. */
int
torusOffset(int a, int b, int n)
{
    const int fwd = (b - a + n) % n; // steps in + direction
    return fwd <= n - fwd ? fwd : fwd - n;
}

/** Torus step direction from a to b: +1, -1, or 0 when equal. */
int
torusDir(int a, int b, int n)
{
    const int off = torusOffset(a, b, n);
    return (off > 0) - (off < 0);
}

} // namespace

Noc::Noc(const HwConfig &cfg) : cfg_(cfg)
{
    const auto n = static_cast<std::size_t>(cfg_.tiles()) * 4;
    links_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        links_.emplace_back(cfg_.nocLinkBytesPerCycle);
    linkDown_.assign(n, 0);
    linkFactor_.assign(n, 1.0);
    const auto cols = static_cast<std::size_t>(cfg_.gridCols);
    tileRow_.reserve(static_cast<std::size_t>(cfg_.tiles()));
    tileCol_.reserve(static_cast<std::size_t>(cfg_.tiles()));
    for (TileId t = 0; t < static_cast<TileId>(cfg_.tiles()); ++t) {
        tileRow_.push_back(cfg_.tileRow(t));
        tileCol_.push_back(cfg_.tileCol(t));
    }
    const auto offsets = [](int side) {
        std::vector<int> table;
        table.reserve(static_cast<std::size_t>(side * side));
        for (int from = 0; from < side; ++from)
            for (int to = 0; to < side; ++to)
                table.push_back(torusOffset(from, to, side));
        return table;
    };
    colOffset_ = offsets(cfg_.gridCols);
    rowOffset_ = offsets(cfg_.gridRows);
    colSouth_.assign(cols, 0);
    colNorth_.assign(cols, 0);
    scratchCols_.reserve(cols);
}

std::size_t
Noc::linkIndex(TileId tile, int dir) const
{
    return static_cast<std::size_t>(tile) * 4 +
           static_cast<std::size_t>(dir);
}

TileId
torusNeighbor(const HwConfig &cfg, TileId tile, int dir)
{
    int row = cfg.tileRow(tile);
    int col = cfg.tileCol(tile);
    switch (dir) {
      case kLinkEast:
        col = (col + 1) % cfg.gridCols;
        break;
      case kLinkWest:
        col = (col + cfg.gridCols - 1) % cfg.gridCols;
        break;
      case kLinkSouth:
        row = (row + 1) % cfg.gridRows;
        break;
      default:
        row = (row + cfg.gridRows - 1) % cfg.gridRows;
        break;
    }
    return static_cast<TileId>(row * cfg.gridCols + col);
}

TileId
Noc::linkTarget(std::size_t link) const
{
    return torusNeighbor(cfg_, static_cast<TileId>(link / 4),
                         static_cast<int>(link % 4));
}

int
Noc::hops(TileId src, TileId dst) const
{
    return std::abs(colOffset(tileCol_[src], tileCol_[dst])) +
           std::abs(rowOffset(tileRow_[src], tileRow_[dst]));
}

std::vector<std::size_t>
Noc::path(TileId src, TileId dst) const
{
    std::vector<std::size_t> out;
    int row = cfg_.tileRow(src);
    int col = cfg_.tileCol(src);
    const int dstRow = cfg_.tileRow(dst);
    const int dstCol = cfg_.tileCol(dst);

    // X first (columns), then Y (rows): deadlock-free on the torus
    // with the usual dateline virtual channels abstracted away.
    while (col != dstCol) {
        const int dir = torusDir(col, dstCol, cfg_.gridCols);
        const TileId here =
            static_cast<TileId>(row * cfg_.gridCols + col);
        out.push_back(linkIndex(here, dir > 0 ? kLinkEast : kLinkWest));
        col = (col + dir + cfg_.gridCols) % cfg_.gridCols;
    }
    while (row != dstRow) {
        const int dir = torusDir(row, dstRow, cfg_.gridRows);
        const TileId here =
            static_cast<TileId>(row * cfg_.gridCols + col);
        out.push_back(
            linkIndex(here, dir > 0 ? kLinkSouth : kLinkNorth));
        row = (row + dir + cfg_.gridRows) % cfg_.gridRows;
    }
    return out;
}

std::vector<std::size_t>
Noc::pathYX(TileId src, TileId dst) const
{
    std::vector<std::size_t> out;
    int row = cfg_.tileRow(src);
    int col = cfg_.tileCol(src);
    const int dstRow = cfg_.tileRow(dst);
    const int dstCol = cfg_.tileCol(dst);

    while (row != dstRow) {
        const int dir = torusDir(row, dstRow, cfg_.gridRows);
        const TileId here =
            static_cast<TileId>(row * cfg_.gridCols + col);
        out.push_back(
            linkIndex(here, dir > 0 ? kLinkSouth : kLinkNorth));
        row = (row + dir + cfg_.gridRows) % cfg_.gridRows;
    }
    while (col != dstCol) {
        const int dir = torusDir(col, dstCol, cfg_.gridCols);
        const TileId here =
            static_cast<TileId>(row * cfg_.gridCols + col);
        out.push_back(linkIndex(here, dir > 0 ? kLinkEast : kLinkWest));
        col = (col + dir + cfg_.gridCols) % cfg_.gridCols;
    }
    return out;
}

bool
Noc::routeHealthy(const std::vector<std::size_t> &route) const
{
    for (std::size_t link : route)
        if (linkDown_[link])
            return false;
    return true;
}

std::vector<std::size_t>
Noc::bfsPath(TileId src, TileId dst) const
{
    // Deterministic BFS over healthy directed links, expanding the
    // four directions in fixed E/W/S/N order, so the detour a given
    // fault set produces is always the same.
    const auto tiles = static_cast<std::size_t>(cfg_.tiles());
    std::vector<std::size_t> viaLink(tiles, ~std::size_t{0});
    std::vector<char> seen(tiles, 0);
    std::deque<TileId> frontier{src};
    seen[src] = 1;
    while (!frontier.empty() && !seen[dst]) {
        const TileId here = frontier.front();
        frontier.pop_front();
        for (int dir = 0; dir < 4; ++dir) {
            const std::size_t link = linkIndex(here, dir);
            if (linkDown_[link])
                continue;
            const TileId next = linkTarget(link);
            if (seen[next])
                continue;
            seen[next] = 1;
            viaLink[next] = link;
            frontier.push_back(next);
        }
    }
    if (!seen[dst])
        return {};
    std::vector<std::size_t> out;
    for (TileId at = dst; at != src;) {
        const std::size_t link = viaLink[at];
        out.push_back(link);
        at = static_cast<TileId>(link / 4);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::vector<std::size_t>
Noc::route(TileId src, TileId dst) const
{
    std::vector<std::size_t> xy = path(src, dst);
    if (downLinks_ == 0 || routeHealthy(xy))
        return xy;
    // Y-X fallback: the cheap dimension-order alternative most
    // single-link faults are routed around with.
    std::vector<std::size_t> yx = pathYX(src, dst);
    if (routeHealthy(yx)) {
        ++detourRoutes_;
        return yx;
    }
    std::vector<std::size_t> detour = bfsPath(src, dst);
    if (!detour.empty()) {
        ++detourRoutes_;
        return detour;
    }
    // The fault set disconnects the pair; the caller still makes
    // forward progress on the nominal path (a real chip would have
    // been taken offline before this point).
    ++unroutablePaths_;
    return xy;
}

des::Reservation
Noc::acquireLink(std::size_t link, Tick earliest, Bytes bytes, Tick dur)
{
    if (anyLinkFault_ && linkFactor_[link] < 1.0) {
        // A degraded link moves the same payload at factor x the
        // bandwidth: stretch the reservation by 1/factor.
        const auto effective = static_cast<Bytes>(std::ceil(
            static_cast<double>(bytes) / linkFactor_[link]));
        return links_[link].acquire(earliest, effective);
    }
    return links_[link].acquire(earliest, bytes, dur);
}

Tick
Noc::reserveRun(int row, int col, int dir, int len, Tick earliest,
                Bytes bytes, Tick dur)
{
    const bool alongRow = dir == kLinkEast || dir == kLinkWest;
    const bool forward = dir == kLinkEast || dir == kLinkSouth;
    int &at = alongRow ? col : row;
    const int n = alongRow ? cfg_.gridCols : cfg_.gridRows;
    Tick latest = earliest;
    for (int k = 0; k < len; ++k) {
        const auto here = static_cast<TileId>(row * cfg_.gridCols + col);
        latest = std::max(
            latest, acquireLink(linkIndex(here, dir), earliest, bytes,
                                dur).end);
        if (forward)
            at = at + 1 == n ? 0 : at + 1;
        else
            at = at == 0 ? n - 1 : at - 1;
    }
    return latest;
}

NocTransfer
Noc::transfer(Tick earliest, TileId src, TileId dst, Bytes bytes)
{
    NocTransfer t;
    t.start = earliest;
    if (src == dst || bytes == 0) {
        t.end = earliest;
        return t;
    }
    const Tick dur = links_.front().serviceTime(bytes);
    if (downLinks_ > 0) {
        const auto rt = route(src, dst);
        t.hops = static_cast<int>(rt.size());
        Tick latest = earliest;
        for (std::size_t link : rt) {
            const auto res = acquireLink(link, earliest, bytes, dur);
            latest = std::max(latest, res.end);
        }
        t.end =
            latest + static_cast<Tick>(t.hops) * cfg_.nocHopLatency;
        t.byteHops = bytes * static_cast<Bytes>(t.hops);
        byteHops_ += t.byteHops;
#ifdef ADYNA_SANITIZE
        validateRoute(rt, src, dst);
        ADYNA_ASSERT(t.hops >= 0, "negative hop count");
        ADYNA_ASSERT(t.byteHops ==
                         bytes * static_cast<Bytes>(t.hops),
                     "byteHops inconsistent with the route");
#endif
        return t;
    }

    // Every link up, so the route is X-Y (degraded links only stretch
    // their reservations, inside acquireLink): walk it inline,
    // reserving each link as it is visited, instead of materializing
    // the path in a heap-allocated vector. The X run leaves along the
    // source row, the Y run follows the destination column; the link
    // visit order matches path() exactly.
    const int srcRow = tileRow_[src];
    const int dstCol = tileCol_[dst];
    const int dx = colOffset(tileCol_[src], dstCol);
    const int dy = rowOffset(srcRow, tileRow_[dst]);
    const Tick latest = std::max(
        reserveRun(srcRow, tileCol_[src], dx > 0 ? kLinkEast : kLinkWest,
                   std::abs(dx), earliest, bytes, dur),
        reserveRun(srcRow, dstCol, dy > 0 ? kLinkSouth : kLinkNorth,
                   std::abs(dy), earliest, bytes, dur));
    t.hops = std::abs(dx) + std::abs(dy);
    t.end = latest + static_cast<Tick>(t.hops) * cfg_.nocHopLatency;
    t.byteHops = bytes * static_cast<Bytes>(t.hops);
    byteHops_ += t.byteHops;
#ifdef ADYNA_SANITIZE
    ADYNA_ASSERT(static_cast<std::size_t>(t.hops) ==
                     path(src, dst).size(),
                 "inline walk hop count diverged from path()");
#endif
    return t;
}

NocTransfer
Noc::multicast(Tick earliest, TileId src,
               const std::vector<TileId> &dsts, Bytes bytes)
{
    NocTransfer t;
    t.start = earliest;
    t.end = earliest;
    if (bytes == 0 || dsts.empty())
        return t;

    const Tick dur = links_.front().serviceTime(bytes);
    Tick latest = earliest;
    int maxHops = 0;
    std::size_t unionLinks = 0;
    if (downLinks_ > 0) {
        // Union of the per-destination fault-aware routes: each link
        // carries the payload once (replication happens at branch
        // points). The list lives in a member scratch buffer so its
        // capacity is reused.
        auto &links = scratchLinks_;
        links.clear();
        for (TileId dst : dsts) {
            if (dst == src)
                continue;
            const auto rt = route(src, dst);
#ifdef ADYNA_SANITIZE
            validateRoute(rt, src, dst);
#endif
            maxHops = std::max(maxHops, static_cast<int>(rt.size()));
            links.insert(links.end(), rt.begin(), rt.end());
        }
        std::sort(links.begin(), links.end());
        links.erase(std::unique(links.begin(), links.end()),
                    links.end());
        for (std::size_t link : links)
            latest = std::max(
                latest, acquireLink(link, earliest, bytes, dur).end);
        unionLinks = links.size();
    } else {
        // Every link up, so every route is X-Y (degraded links only
        // stretch their reservations, inside acquireLink), and the
        // X-Y routes from one source form a tree. All of them leave
        // along the source row, sharing one X run per direction, then
        // branch into one Y run per reached column (again one per
        // direction). So the union is the longest east and west runs
        // plus, per column, the longest south and north runs: built
        // directly, with no per-destination walk and no dedup. Links
        // are independent resources, so the order they are reserved
        // in cannot change a grant. Direction ties on an even side
        // resolve as in torusOffset().
        const int srcRow = tileRow_[src];
        const int srcCol = tileCol_[src];
        int east = 0;
        int west = 0;
        scratchCols_.clear();
        for (TileId dst : dsts) {
            if (dst == src)
                continue;
            const int col = tileCol_[dst];
            const int dx = colOffset(srcCol, col);
            const int dy = rowOffset(srcRow, tileRow_[dst]);
            east = std::max(east, dx);
            west = std::max(west, -dx);
            if (dy != 0) {
                int &south = colSouth_[static_cast<std::size_t>(col)];
                int &north = colNorth_[static_cast<std::size_t>(col)];
                if (south == 0 && north == 0)
                    scratchCols_.push_back(col);
                south = std::max(south, dy);
                north = std::max(north, -dy);
            }
            maxHops = std::max(maxHops, std::abs(dx) + std::abs(dy));
        }

        const auto reserve = [&](int col, int dir, int len) {
            latest = std::max(latest, reserveRun(srcRow, col, dir, len,
                                                 earliest, bytes, dur));
        };
        reserve(srcCol, kLinkEast, east);
        reserve(srcCol, kLinkWest, west);
        unionLinks = static_cast<std::size_t>(east + west);
        for (int col : scratchCols_) {
            int &south = colSouth_[static_cast<std::size_t>(col)];
            int &north = colNorth_[static_cast<std::size_t>(col)];
            reserve(col, kLinkSouth, south);
            reserve(col, kLinkNorth, north);
            unionLinks += static_cast<std::size_t>(south + north);
            south = 0;
            north = 0;
        }
    }
    t.hops = maxHops;
    t.end = latest + static_cast<Tick>(maxHops) * cfg_.nocHopLatency;
    t.byteHops = bytes * static_cast<Bytes>(unionLinks);
    byteHops_ += t.byteHops;
    return t;
}

Tick
Noc::probeAckLatency(TileId src, TileId dst) const
{
    return 2 * static_cast<Tick>(hops(src, dst)) * cfg_.nocHopLatency;
}

Tick
Noc::probeAck(Tick now, TileId src, TileId dst)
{
    const int h = anyLinkFault_ && downLinks_ > 0
                      ? static_cast<int>(route(src, dst).size())
                      : hops(src, dst);
    const Tick clean =
        2 * static_cast<Tick>(h) * cfg_.nocHopLatency;
    if (probeDropProb_ <= 0.0 || now >= probeDropUntil_ || src == dst)
        return clean;

    // Inside a drop window: each lost round trip costs the current
    // retransmission timeout and doubles it; an exhausted budget
    // escalates to a host-coordinated sync.
    Tick waited = 0;
    Tick timeout = cfg_.probeTimeoutCycles;
    for (int attempt = 0; attempt <= cfg_.probeMaxRetries; ++attempt) {
        if (!probeRng_.bernoulli(probeDropProb_))
            return waited + clean;
        ++probeDrops_;
        if (attempt < cfg_.probeMaxRetries) {
            ++probeRetries_;
            waited += timeout;
            timeout *= 2;
        }
    }
    ++probeGiveUps_;
    return waited + clean + cfg_.probeGiveUpPenaltyCycles;
}

void
Noc::setLinkDown(TileId tile, int dir, bool down)
{
    const std::size_t link = linkIndex(tile, dir);
    ADYNA_ASSERT(link < linkDown_.size(), "bad link ", tile, "/", dir);
    if (static_cast<bool>(linkDown_[link]) == down)
        return;
    linkDown_[link] = down ? 1 : 0;
    downLinks_ += down ? 1 : -1;
    anyLinkFault_ =
        downLinks_ > 0 || degradedLinks_ > 0 || probeDropProb_ > 0.0;
}

void
Noc::setLinkBandwidthFactor(TileId tile, int dir, double factor)
{
    const std::size_t link = linkIndex(tile, dir);
    ADYNA_ASSERT(link < linkFactor_.size(), "bad link ", tile, "/",
                 dir);
    ADYNA_ASSERT(factor > 0.0 && factor <= 1.0,
                 "bandwidth factor must be in (0, 1], got ", factor);
    const bool was = linkFactor_[link] < 1.0;
    const bool is = factor < 1.0;
    linkFactor_[link] = factor;
    degradedLinks_ += (is ? 1 : 0) - (was ? 1 : 0);
    anyLinkFault_ =
        downLinks_ > 0 || degradedLinks_ > 0 || probeDropProb_ > 0.0;
}

void
Noc::setProbeDropWindow(double prob, Tick until, std::uint64_t seed)
{
    ADYNA_ASSERT(prob >= 0.0 && prob <= 1.0,
                 "drop probability must be in [0, 1], got ", prob);
    probeDropProb_ = prob;
    probeDropUntil_ = until;
    if (prob > 0.0)
        probeRng_ = Rng(seed);
    anyLinkFault_ =
        downLinks_ > 0 || degradedLinks_ > 0 || probeDropProb_ > 0.0;
}

void
Noc::clearFaults()
{
    std::fill(linkDown_.begin(), linkDown_.end(), 0);
    std::fill(linkFactor_.begin(), linkFactor_.end(), 1.0);
    downLinks_ = 0;
    degradedLinks_ = 0;
    probeDropProb_ = 0.0;
    probeDropUntil_ = 0;
    anyLinkFault_ = false;
}

bool
Noc::linkDown(TileId tile, int dir) const
{
    return linkDown_[linkIndex(tile, dir)] != 0;
}

#ifdef ADYNA_SANITIZE
void
Noc::validateRoute(const std::vector<std::size_t> &route, TileId src,
                   TileId dst) const
{
    TileId at = src;
    for (std::size_t link : route) {
        ADYNA_ASSERT(link < linkDown_.size(), "route uses bad link ",
                     link);
        ADYNA_ASSERT(static_cast<TileId>(link / 4) == at,
                     "route link ", link, " does not leave tile ", at);
        at = linkTarget(link);
    }
    ADYNA_ASSERT(at == dst, "route from ", src, " ends at ", at,
                 " instead of ", dst);
}
#endif

Tick
Noc::linkBusyTicks() const
{
    Tick total = 0;
    for (const auto &link : links_)
        total += link.busyTicks();
    return total;
}

void
Noc::trim(Tick before)
{
    for (auto &link : links_)
        link.trim(before);
}

void
Noc::reset()
{
    for (auto &link : links_)
        link.reset();
    byteHops_ = 0;
}

} // namespace adyna::arch
