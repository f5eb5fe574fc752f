#include "partitioned_cache.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"

namespace cmpqos
{

PartitionedCache::PartitionedCache(const CacheConfig &config, int num_cores,
                                   PartitionScheme scheme)
    : config_(config.validate()), numCores_(num_cores), scheme_(scheme),
      alloc_(num_cores, config.assoc),
      classes_(static_cast<std::size_t>(num_cores), CoreClass::Inactive),
      targets_(static_cast<std::size_t>(num_cores), 0),
      poolWays_(alloc_.poolWays()),
      blockShift_(floorLog2(config_.blockSize)),
      setMask_(config_.numSets() - 1),
      tags_(config_.numSets(), config_.assoc, num_cores),
      gcounts_(static_cast<std::size_t>(num_cores), 0),
      globalTargets_(static_cast<std::size_t>(num_cores), 0),
      stats_(static_cast<std::size_t>(num_cores))
{
}

void
PartitionedCache::syncCore(CoreId core)
{
    classes_[static_cast<std::size_t>(core)] = alloc_.coreClass(core);
    targets_[static_cast<std::size_t>(core)] = alloc_.target(core);
    poolWays_ = alloc_.poolWays();

    // Global targets in blocks (ways * numSets). Opportunistic cores
    // share the pool budget evenly, so one core's change moves every
    // pool core's target.
    std::uint64_t pool_cores = 0;
    for (CoreClass cls : classes_)
        pool_cores += cls == CoreClass::Opportunistic;
    for (std::size_t i = 0; i < classes_.size(); ++i)
        globalTargets_[i] =
            classes_[i] == CoreClass::Opportunistic
                ? static_cast<std::uint64_t>(poolWays_) *
                      config_.numSets() / pool_cores
                : static_cast<std::uint64_t>(targets_[i]) *
                      config_.numSets();
}

void
PartitionedCache::setTargetWays(CoreId core, unsigned ways)
{
    const unsigned old = alloc_.target(core);
    alloc_.setTarget(core, ways);
    syncCore(core);
    if (trace_ != nullptr && trace_->active() && ways != old) {
        TraceEvent e = traceEvent(TraceEventType::Repartition,
                                  traceClock_ ? *traceClock_ : 0);
        e.a = static_cast<std::uint64_t>(core);
        e.b = ways;
        e.x = old;
        trace_->emit(e);
    }
}

void
PartitionedCache::setCoreClass(CoreId core, CoreClass cls)
{
    alloc_.setCoreClass(core, cls);
    syncCore(core);
}

void
PartitionedCache::releaseCore(CoreId core)
{
    alloc_.release(core);
    syncCore(core);
}

unsigned
PartitionedCache::selectVictimPerSet(std::uint64_t set, CoreId core) const
{
    // One pass over the cores sorts the set's ways into the rule
    // classes: orphans (inactive owners), over-target Reserved blocks
    // of other cores, and the opportunistic pool.
    WayMask held = 0, orphans = 0, over = 0, pool = 0;
    unsigned pool_count = 0;
    for (int c = 0; c < numCores_; ++c) {
        const WayMask ways = tags_.owned(set, c);
        held |= ways;
        switch (classes_[static_cast<std::size_t>(c)]) {
          case CoreClass::Inactive:
            orphans |= ways;
            break;
          case CoreClass::Reserved:
            if (c != core &&
                tags_.count(set, c) > targets_[static_cast<std::size_t>(c)])
                over |= ways;
            break;
          case CoreClass::Opportunistic:
            pool |= ways;
            pool_count += tags_.count(set, c);
            break;
        }
    }
    const WayMask empty = tags_.allWays() & ~held;
    const bool pooled =
        classes_[static_cast<std::size_t>(core)] != CoreClass::Reserved;
    const unsigned own_count = pooled ? pool_count : tags_.count(set, core);
    const unsigned own_target =
        pooled ? poolWays_ : targets_[static_cast<std::size_t>(core)];

    if (own_count < own_target) {
        // Under target: claim free capacity first — empty ways, then
        // orphans. Then take from an over-allocated entity: Reserved
        // cores first (accelerates convergence of Strict/Elastic
        // partitions and frees stolen ways fastest), then the pool,
        // which yields to reservations unconditionally. (A pooled
        // requester under target means the pool is under its budget,
        // so there is nothing for it to take from the pool here.)
        if (empty != 0)
            return lowestWay(empty);
        const WayMask steal = orphans != 0 ? orphans
                              : over != 0  ? over
                              : pooled     ? 0
                                           : pool;
        if (steal != 0)
            return tags_.lru(set, steal);
    }

    // At/over target (or nothing stealable): replace within the
    // requester's own entity. Crucially, an at-target core must NOT
    // claim empty ways — that would let it occupy capacity beyond
    // its allocation and defeat way-partitioned isolation.
    const WayMask own = pooled ? pool : tags_.owned(set, core);
    if (own != 0)
        return tags_.lru(set, own);

    // Fallback for corner cases (e.g., an entity with a zero target
    // and no resident blocks): free capacity, orphans, global LRU.
    if (empty != 0)
        return lowestWay(empty);
    return tags_.lru(set, orphans != 0 ? orphans : held);
}

unsigned
PartitionedCache::selectVictimGlobal(std::uint64_t set, CoreId core) const
{
    WayMask held = 0, orphans = 0, over_reserved = 0, over = 0;
    for (int c = 0; c < numCores_; ++c) {
        const auto i = static_cast<std::size_t>(c);
        const WayMask ways = tags_.owned(set, c);
        held |= ways;
        const CoreClass cls = classes_[i];
        if (cls == CoreClass::Inactive)
            orphans |= ways;
        if (c != core && gcounts_[i] > globalTargets_[i]) {
            over |= ways;
            if (cls == CoreClass::Reserved)
                over_reserved |= ways;
        }
    }
    const WayMask empty = tags_.allWays() & ~held;

    const auto me = static_cast<std::size_t>(core);
    if (gcounts_[me] < globalTargets_[me]) {
        // Under global target: free capacity and orphans first, then
        // any over-allocated core's block in this set, Reserved cores
        // first, as in the per-set scheme.
        if (empty != 0)
            return lowestWay(empty);
        const WayMask steal = orphans != 0         ? orphans
                              : over_reserved != 0 ? over_reserved
                                                   : over;
        if (steal != 0)
            return tags_.lru(set, steal);
    } else if (const WayMask own = tags_.owned(set, core); own != 0) {
        return tags_.lru(set, own);
    }

    // Fallback: free capacity, orphans, then global LRU.
    if (empty != 0)
        return lowestWay(empty);
    return tags_.lru(set, orphans != 0 ? orphans : held);
}

AccessResult
PartitionedCache::access(CoreId core, Addr addr, bool is_write)
{
    cmpqos_assert(core >= 0 && core < numCores_, "core %d out of range",
                  core);
    auto &st = stats_[static_cast<std::size_t>(core)];
    ++st.accesses;

    const Addr block_addr = addr >> blockShift_;
    const std::uint64_t set = block_addr & setMask_;

    AccessResult result;
    const int way = tags_.find(set, block_addr);
    if (way >= 0) {
        result.hit = true;
        tags_.touch(set, static_cast<unsigned>(way), is_write);
        return result;
    }

    ++st.misses;
    unsigned victim = 0;
    switch (scheme_) {
      case PartitionScheme::None:
        victim = tags_.lruVictim(set);
        break;
      case PartitionScheme::Global:
        victim = selectVictimGlobal(set, core);
        break;
      case PartitionScheme::PerSet:
        victim = selectVictimPerSet(set, core);
        break;
    }
    const int old = tags_.fill(set, victim, block_addr, core, is_write, result);
    if (old >= 0) {
        st.writebacks += result.writeback;
        if (old != core)
            ++st.interferenceEvictions;
        --gcounts_[static_cast<std::size_t>(old)];
    }
    ++gcounts_[static_cast<std::size_t>(core)];
    return result;
}

bool
PartitionedCache::contains(Addr addr) const
{
    const Addr block_addr = addr >> blockShift_;
    return tags_.find(block_addr & setMask_, block_addr) >= 0;
}

std::uint64_t
PartitionedCache::blocksOwnedBy(CoreId core) const
{
    cmpqos_assert(core >= 0 && core < numCores_, "core out of range");
    return gcounts_[static_cast<std::size_t>(core)];
}

unsigned
PartitionedCache::blocksInSet(std::uint64_t set, CoreId core) const
{
    cmpqos_assert(set < config_.numSets(), "set out of range");
    cmpqos_assert(core >= 0 && core < numCores_, "core out of range");
    return tags_.count(set, core);
}

const CoreCacheStats &
PartitionedCache::coreStats(CoreId core) const
{
    cmpqos_assert(core >= 0 && core < numCores_, "core out of range");
    return stats_[static_cast<std::size_t>(core)];
}

void
PartitionedCache::resetStats()
{
    for (auto &s : stats_)
        s = CoreCacheStats();
}

double
PartitionedCache::missRate() const
{
    const std::uint64_t a = totalAccesses();
    return a == 0 ? 0.0
                  : static_cast<double>(totalMisses()) /
                        static_cast<double>(a);
}

std::uint64_t
PartitionedCache::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &s : stats_)
        n += s.accesses;
    return n;
}

std::uint64_t
PartitionedCache::totalMisses() const
{
    std::uint64_t n = 0;
    for (const auto &s : stats_)
        n += s.misses;
    return n;
}

void
PartitionedCache::flush()
{
    tags_.clear();
    for (auto &g : gcounts_)
        g = 0;
}

double
PartitionedCache::perSetOccupancySpread(CoreId core) const
{
    cmpqos_assert(core >= 0 && core < numCores_, "core out of range");
    const std::uint64_t sets = config_.numSets();
    double sum = 0.0, sum_sq = 0.0;
    for (std::uint64_t s = 0; s < sets; ++s) {
        const double v = static_cast<double>(tags_.count(s, core));
        sum += v;
        sum_sq += v * v;
    }
    const double n = static_cast<double>(sets);
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

} // namespace cmpqos
