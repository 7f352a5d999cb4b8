/**
 * @file
 * Dataflow schedule structures: graph segments, per-operator stage
 * assignments (tile groups + multi-kernel stores), tile-sharing
 * pairs (Section V-B), and branch groups.
 */

#ifndef ADYNA_CORE_SCHEDULE_HH
#define ADYNA_CORE_SCHEDULE_HH

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "kernels/store.hh"

namespace adyna::core {

/** One operator spatially scheduled onto a tile group. */
struct StageAssign
{
    OpId op = kInvalidOp;

    /**
     * The full tile range this stage may use. Without sharing the
     * stage always uses all of them; with sharing the per-batch
     * configuration selects a prefix / suffix.
     */
    std::vector<TileId> tiles;

    /** Tiles used in the default configuration. */
    int baseTiles = 1;

    /**
     * Kernel stores per tile-group size (sharing configurations
     * need kernels for each possible size, Section VII). Held by
     * shared_ptr so schedule copies — warm rebuilds, delta splices,
     * cache-served builds — share the compiled images instead of
     * deep-copying them; stores are immutable once built.
     */
    std::map<int, std::shared_ptr<const kernels::KernelStore>> stores;

    /** Weights stay resident in the scratchpads (vs streamed from
     * DRAM every batch). */
    bool weightsResident = true;

    /** Index into Segment::pairs, -1 if unshared. */
    int sharePair = -1;

    /** True if this stage is the first member of its share pair
     * (uses the range prefix; the second member uses the suffix). */
    bool shareFirst = false;
};

/** A tile-sharing pair: two stages on complementary branches share
 * boundary tiles under three allocation ratios (Section V-B). */
struct SharePair
{
    int stageA = -1; ///< index into Segment::stages
    int stageB = -1;

    /** (tilesA, tilesB) per configuration: base ratio a:b, then
     * 2a:b, then a:2b. */
    std::array<std::pair<int, int>, 3> alloc{};
};

/** A pipelined group of operators resident on-chip together. */
struct Segment
{
    /** Stages in topological order. */
    std::vector<StageAssign> stages;

    /** Tile-sharing pairs among the stages. */
    std::vector<SharePair> pairs;

    /** Total resident weight bytes (loaded at segment activation). */
    Bytes residentWeightBytes = 0;

    /** Stage index of an op, -1 if not in this segment. */
    int stageOf(OpId op) const;
};

/** A full dataflow schedule. */
struct Schedule
{
    /**
     * Segments are immutable once built and held by shared_ptr, so
     * copying a schedule — and, critically, splicing untouched
     * segments from a last-known-good schedule during a delta
     * re-schedule — costs refcount bumps instead of deep copies of
     * every stage's tile ranges and store maps. Mutate through
     * mutableSegment(), which clones first (copy-on-write).
     */
    std::vector<std::shared_ptr<const Segment>> segments;

    /** Clone-on-write access to segment @p i: replaces the shared
     * segment with a private copy and returns it. For tests and
     * tools that edit a built schedule; never needed on the build or
     * serve paths. */
    Segment &mutableSegment(std::size_t i);

    /** Total kernels stored, over all stages and tile counts. */
    std::size_t totalKernels() const;

    /** Human-readable summary. */
    std::string str() const;

    /** Everything the schedule compiles down to: per stage, the op,
     * tile range and every store's kernel values and encoded
     * images. Equal fingerprints mean byte-identical schedules. */
    std::string fingerprint() const;
};

} // namespace adyna::core

#endif // ADYNA_CORE_SCHEDULE_HH
