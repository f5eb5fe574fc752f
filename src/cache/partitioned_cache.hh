/**
 * @file
 * The shared, way-partitioned L2 cache — the microarchitectural heart
 * of the QoS framework (Section 4.1).
 *
 * Three partitioning schemes are supported:
 *  - None:   plain shared LRU (non-QoS CMP).
 *  - Global: modified LRU with global per-core allocation counters
 *            (Suh et al.); per-set block distribution drifts with
 *            co-runner behaviour, causing run-to-run variation.
 *  - PerSet: per-set allocation counters converge every set to the
 *            per-core targets (Iyer, Nesbit et al.), the scheme the
 *            paper adopts for QoS.
 *
 * Victim selection is QoS-aware, per the paper's modification: when
 * the requester is under its target and there are over-allocated
 * cores, victims are taken first from over-allocated *Reserved*
 * (Strict/Elastic) cores to accelerate their convergence, and only
 * then from Opportunistic blocks (LRU among them). Blocks left by
 * inactive cores are reclaimed before anything else.
 */

#ifndef CMPQOS_CACHE_PARTITIONED_CACHE_HH
#define CMPQOS_CACHE_PARTITIONED_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/config.hh"
#include "cache/partition.hh"
#include "cache/tag_store.hh"
#include "common/types.hh"
#include "telemetry/recorder.hh"

namespace cmpqos
{

/** Per-core statistics kept by the partitioned cache. */
struct CoreCacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /** Misses where the victim came from another core's blocks. */
    std::uint64_t interferenceEvictions = 0;

    double
    missRate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/**
 * Shared L2 cache with way partitioning and QoS-aware replacement.
 */
class PartitionedCache
{
  public:
    PartitionedCache(const CacheConfig &config, int num_cores,
                     PartitionScheme scheme = PartitionScheme::PerSet);

    /** Access one block on behalf of @p core. */
    AccessResult access(CoreId core, Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    const CacheConfig &config() const { return config_; }
    int numCores() const { return numCores_; }
    PartitionScheme scheme() const { return scheme_; }

    /** The allocation table (targets and core classes). */
    const WayAllocationTable &allocation() const { return alloc_; }

    /** Convenience forwarding to the allocation table. */
    void setTargetWays(CoreId core, unsigned ways);
    unsigned targetWays(CoreId core) const { return alloc_.target(core); }
    void setCoreClass(CoreId core, CoreClass cls);
    CoreClass coreClass(CoreId core) const { return alloc_.coreClass(core); }

    /**
     * Release a core: mark it inactive and clear its target. Its
     * blocks remain cached but become preferred victims (orphans).
     */
    void releaseCore(CoreId core);

    /**
     * Telemetry: emit a Repartition event whenever a core's target
     * way count changes. @p clock points at the owning simulation's
     * virtual clock (the cache has no clock of its own).
     */
    void
    setTrace(TraceRecorder *trace, const Cycle *clock)
    {
        trace_ = trace;
        traceClock_ = clock;
    }

    /** Total blocks currently owned by @p core across all sets. */
    std::uint64_t blocksOwnedBy(CoreId core) const;

    /** Blocks owned by @p core in one set (for convergence tests). */
    unsigned blocksInSet(std::uint64_t set, CoreId core) const;

    /** Blocks owned by any core in one set (set < numSets). */
    unsigned setOccupancy(std::uint64_t set) const
    {
        return tags_.occupancy(set);
    }

    const CoreCacheStats &coreStats(CoreId core) const;
    void resetStats();

    /** Aggregate miss rate over all cores. */
    double missRate() const;
    std::uint64_t totalAccesses() const;
    std::uint64_t totalMisses() const;

    /** Invalidate everything (also clears ownership counters). */
    void flush();

    /**
     * Standard deviation of per-set block counts for @p core —
     * measures how uneven a core's allocation is across sets (the
     * per-set scheme drives this toward 0, the global scheme does
     * not; used by the Section 4.1 ablation).
     */
    double perSetOccupancySpread(CoreId core) const;

  private:
    /** Copy @p core's class and target, and the pool size, inline. */
    void syncCore(CoreId core);

    /** Pick the victim way for a miss by @p core in @p set. */
    unsigned selectVictimPerSet(std::uint64_t set, CoreId core) const;
    unsigned selectVictimGlobal(std::uint64_t set, CoreId core) const;

    CacheConfig config_;
    int numCores_;
    PartitionScheme scheme_;
    WayAllocationTable alloc_;
    // Inline copies of alloc_, refreshed by syncCore.
    std::vector<CoreClass> classes_;
    std::vector<unsigned> targets_;
    unsigned poolWays_;

    unsigned blockShift_;
    std::uint64_t setMask_;
    TagStore tags_;                      // owners are cores
    std::vector<std::uint64_t> gcounts_; // global per-core

    std::vector<CoreCacheStats> stats_;

    TraceRecorder *trace_ = nullptr;
    const Cycle *traceClock_ = nullptr;
};

} // namespace cmpqos

#endif // CMPQOS_CACHE_PARTITIONED_CACHE_HH
