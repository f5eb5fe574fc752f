/**
 * @file
 * Test-only reference models of the three tag arrays: the plain L1,
 * the way-partitioned L2 and the duplicate tags.
 *
 * They keep every block as a stamped struct and follow the victim
 * rules literally: each rule is a predicate over a block's owner, and
 * the victim is the least-stamped valid block satisfying the first
 * rule that matches any block. Every touch takes the next value of a
 * counter that only a flush (or reset) clears, after invalidating
 * everything. The oracle suite runs the production arrays in
 * lockstep against these.
 */

#ifndef CMPQOS_TESTS_CACHE_REFERENCE_CACHES_HH
#define CMPQOS_TESTS_CACHE_REFERENCE_CACHES_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/partition.hh"
#include "cache/partitioned_cache.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace cmpqos
{
namespace ref
{

struct Block
{
    Addr blockAddr = 0;
    bool valid = false;
    bool dirty = false;
    CoreId owner = invalidCore;
    std::uint64_t stamp = 0;
};

/** Stamped blocks of one geometry with the two shared scans. */
class StampedArray
{
  public:
    StampedArray(std::uint64_t sets, unsigned ways)
        : ways_(ways), blocks_(sets * ways)
    {
    }

    Block *set(std::uint64_t s) { return &blocks_[s * ways_]; }
    const Block *set(std::uint64_t s) const { return &blocks_[s * ways_]; }
    unsigned ways() const { return ways_; }

    int
    find(std::uint64_t s, Addr block_addr) const
    {
        const Block *b = set(s);
        for (unsigned w = 0; w < ways_; ++w)
            if (b[w].valid && b[w].blockAddr == block_addr)
                return static_cast<int>(w);
        return -1;
    }

    int
    firstInvalid(std::uint64_t s) const
    {
        const Block *b = set(s);
        for (unsigned w = 0; w < ways_; ++w)
            if (!b[w].valid)
                return static_cast<int>(w);
        return -1;
    }

    /** Least-stamped valid way whose block satisfies @p pred, or -1. */
    template <typename Pred>
    int
    lruAmong(std::uint64_t s, Pred pred) const
    {
        const Block *b = set(s);
        int victim = -1;
        std::uint64_t best = ~0ULL;
        for (unsigned w = 0; w < ways_; ++w) {
            if (b[w].valid && pred(b[w]) && b[w].stamp < best) {
                best = b[w].stamp;
                victim = static_cast<int>(w);
            }
        }
        return victim;
    }

    void
    fill(std::uint64_t s, unsigned w, Addr block_addr, bool dirty,
         CoreId owner)
    {
        Block &b = set(s)[w];
        b.blockAddr = block_addr;
        b.valid = true;
        b.dirty = dirty;
        b.owner = owner;
        b.stamp = ++stamp_;
    }

    void touch(std::uint64_t s, unsigned w) { set(s)[w].stamp = ++stamp_; }

    void
    clear()
    {
        for (auto &b : blocks_)
            b = Block();
        stamp_ = 0;
    }

    std::uint64_t
    validBlocks() const
    {
        std::uint64_t n = 0;
        for (const auto &b : blocks_)
            n += b.valid;
        return n;
    }

  private:
    unsigned ways_;
    std::vector<Block> blocks_;
    std::uint64_t stamp_ = 0;
};

/** The private L1: invalid ways first, then LRU. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config)
        : shift_(floorLog2(config.blockSize)), mask_(config.numSets() - 1),
          array_(config.numSets(), config.assoc)
    {
    }

    AccessResult
    access(Addr addr, bool is_write)
    {
        ++accesses_;
        const Addr ba = addr >> shift_;
        const std::uint64_t s = ba & mask_;
        AccessResult r;
        const int way = array_.find(s, ba);
        if (way >= 0) {
            r.hit = true;
            array_.touch(s, static_cast<unsigned>(way));
            if (is_write)
                array_.set(s)[way].dirty = true;
            return r;
        }
        ++misses_;
        int victim = array_.firstInvalid(s);
        if (victim < 0)
            victim = array_.lruAmong(s, [](const Block &) { return true; });
        const Block &old = array_.set(s)[victim];
        if (old.valid) {
            r.evicted = true;
            r.victimAddr = old.blockAddr;
            r.writeback = old.dirty;
            writebacks_ += old.dirty;
        }
        array_.fill(s, static_cast<unsigned>(victim), ba, is_write, 0);
        return r;
    }

    bool
    contains(Addr addr) const
    {
        const Addr ba = addr >> shift_;
        return array_.find(ba & mask_, ba) >= 0;
    }

    void
    invalidate(Addr addr)
    {
        const Addr ba = addr >> shift_;
        const int way = array_.find(ba & mask_, ba);
        if (way >= 0)
            array_.set(ba & mask_)[way] = Block();
    }

    void flush() { array_.clear(); }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t validBlocks() const { return array_.validBlocks(); }

  private:
    unsigned shift_;
    std::uint64_t mask_;
    StampedArray array_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/** How often each victim rule of the partitioned L2 fired. */
struct RuleCounts
{
    std::uint64_t empty = 0;
    std::uint64_t orphan = 0;
    std::uint64_t overTarget = 0;
    std::uint64_t pool = 0;
    std::uint64_t own = 0;
    std::uint64_t fallback = 0;
};

/** The shared L2 under the None, Global and PerSet schemes. */
class PartitionedCache
{
  public:
    PartitionedCache(const CacheConfig &config, int num_cores,
                     PartitionScheme scheme)
        : config_(config), cores_(num_cores), scheme_(scheme),
          alloc_(num_cores, config.assoc),
          shift_(floorLog2(config.blockSize)), mask_(config.numSets() - 1),
          array_(config.numSets(), config.assoc),
          counts_(config.numSets() * static_cast<std::uint64_t>(num_cores)),
          gcounts_(static_cast<std::size_t>(num_cores)),
          stats_(static_cast<std::size_t>(num_cores))
    {
    }

    const WayAllocationTable &allocation() const { return alloc_; }
    void setTargetWays(CoreId c, unsigned ways) { alloc_.setTarget(c, ways); }
    void setCoreClass(CoreId c, CoreClass cls) { alloc_.setCoreClass(c, cls); }
    void releaseCore(CoreId c) { alloc_.release(c); }

    AccessResult
    access(CoreId core, Addr addr, bool is_write)
    {
        auto &st = stats_[static_cast<std::size_t>(core)];
        ++st.accesses;
        const Addr ba = addr >> shift_;
        const std::uint64_t s = ba & mask_;
        AccessResult r;
        const int way = array_.find(s, ba);
        if (way >= 0) {
            r.hit = true;
            array_.touch(s, static_cast<unsigned>(way));
            if (is_write)
                array_.set(s)[way].dirty = true;
            return r;
        }
        ++st.misses;
        const unsigned victim = selectVictim(s, core);
        const Block &old = array_.set(s)[victim];
        if (old.valid) {
            r.evicted = true;
            r.victimAddr = old.blockAddr;
            if (old.dirty) {
                r.writeback = true;
                ++st.writebacks;
            }
            if (old.owner != core)
                ++st.interferenceEvictions;
            --count(s, old.owner);
            --gcounts_[static_cast<std::size_t>(old.owner)];
        }
        array_.fill(s, victim, ba, is_write, core);
        ++count(s, core);
        ++gcounts_[static_cast<std::size_t>(core)];
        return r;
    }

    bool
    contains(Addr addr) const
    {
        const Addr ba = addr >> shift_;
        return array_.find(ba & mask_, ba) >= 0;
    }

    void
    flush()
    {
        array_.clear();
        for (auto &c : counts_)
            c = 0;
        for (auto &g : gcounts_)
            g = 0;
    }

    std::uint64_t
    blocksOwnedBy(CoreId c) const
    {
        return gcounts_[static_cast<std::size_t>(c)];
    }
    unsigned
    blocksInSet(std::uint64_t s, CoreId c) const
    {
        return counts_[s * static_cast<std::uint64_t>(cores_) +
                       static_cast<std::uint64_t>(c)];
    }
    const CoreCacheStats &
    coreStats(CoreId c) const
    {
        return stats_[static_cast<std::size_t>(c)];
    }
    const RuleCounts &rules() const { return rules_; }

  private:
    unsigned &
    count(std::uint64_t s, CoreId c)
    {
        return counts_[s * static_cast<std::uint64_t>(cores_) +
                       static_cast<std::uint64_t>(c)];
    }

    CoreClass cls(CoreId c) const { return alloc_.coreClass(c); }

    unsigned
    poolCount(std::uint64_t s) const
    {
        unsigned n = 0;
        for (int c = 0; c < cores_; ++c)
            if (cls(c) == CoreClass::Opportunistic)
                n += blocksInSet(s, c);
        return n;
    }

    /** Counts @p rule and returns @p way as a victim. */
    static unsigned
    pick(std::uint64_t &rule, int way)
    {
        ++rule;
        return static_cast<unsigned>(way);
    }

    /** Free capacity, then orphans, then global LRU. */
    unsigned
    fallback(std::uint64_t s)
    {
        ++rules_.fallback;
        int v = array_.firstInvalid(s);
        if (v < 0)
            v = array_.lruAmong(s, [&](const Block &b) {
                return cls(b.owner) == CoreClass::Inactive;
            });
        if (v < 0)
            v = array_.lruAmong(s, [](const Block &) { return true; });
        return static_cast<unsigned>(v);
    }

    unsigned
    selectVictim(std::uint64_t s, CoreId core)
    {
        switch (scheme_) {
          case PartitionScheme::None: {
            const int v = array_.firstInvalid(s);
            if (v >= 0)
                return pick(rules_.empty, v);
            return pick(rules_.own, array_.lruAmong(
                                        s, [](const Block &) { return true; }));
          }
          case PartitionScheme::Global:
            return selectGlobal(s, core);
          case PartitionScheme::PerSet:
            return selectPerSet(s, core);
        }
        return 0;
    }

    unsigned
    selectPerSet(std::uint64_t s, CoreId core)
    {
        const bool pooled = cls(core) != CoreClass::Reserved;
        const unsigned own_count =
            pooled ? poolCount(s) : blocksInSet(s, core);
        const unsigned own_target =
            pooled ? alloc_.poolWays() : alloc_.target(core);
        int v = -1;
        if (own_count < own_target) {
            v = array_.firstInvalid(s);
            if (v >= 0)
                return pick(rules_.empty, v);
            v = array_.lruAmong(s, [&](const Block &b) {
                return cls(b.owner) == CoreClass::Inactive;
            });
            if (v >= 0)
                return pick(rules_.orphan, v);
            v = array_.lruAmong(s, [&](const Block &b) {
                return cls(b.owner) == CoreClass::Reserved &&
                       b.owner != core &&
                       blocksInSet(s, b.owner) > alloc_.target(b.owner);
            });
            if (v >= 0)
                return pick(rules_.overTarget, v);
            if (!pooled || poolCount(s) > alloc_.poolWays()) {
                v = array_.lruAmong(s, [&](const Block &b) {
                    return cls(b.owner) == CoreClass::Opportunistic;
                });
                if (v >= 0)
                    return pick(rules_.pool, v);
            }
        }
        if (pooled)
            v = array_.lruAmong(s, [&](const Block &b) {
                return cls(b.owner) == CoreClass::Opportunistic;
            });
        else
            v = array_.lruAmong(
                s, [&](const Block &b) { return b.owner == core; });
        if (v >= 0)
            return pick(rules_.own, v);
        return fallback(s);
    }

    std::uint64_t
    globalTarget(CoreId c) const
    {
        if (cls(c) == CoreClass::Opportunistic) {
            int pool_cores = 0;
            for (int i = 0; i < cores_; ++i)
                pool_cores += cls(i) == CoreClass::Opportunistic;
            return static_cast<std::uint64_t>(alloc_.poolWays()) *
                   config_.numSets() /
                   static_cast<std::uint64_t>(pool_cores);
        }
        return static_cast<std::uint64_t>(alloc_.target(c)) *
               config_.numSets();
    }

    unsigned
    selectGlobal(std::uint64_t s, CoreId core)
    {
        int v = -1;
        const auto over = [&](CoreId c) {
            return gcounts_[static_cast<std::size_t>(c)] > globalTarget(c);
        };
        if (gcounts_[static_cast<std::size_t>(core)] < globalTarget(core)) {
            v = array_.firstInvalid(s);
            if (v >= 0)
                return pick(rules_.empty, v);
            v = array_.lruAmong(s, [&](const Block &b) {
                return cls(b.owner) == CoreClass::Inactive;
            });
            if (v >= 0)
                return pick(rules_.orphan, v);
            v = array_.lruAmong(s, [&](const Block &b) {
                return cls(b.owner) == CoreClass::Reserved &&
                       b.owner != core && over(b.owner);
            });
            if (v < 0)
                v = array_.lruAmong(s, [&](const Block &b) {
                    return b.owner != core && over(b.owner);
                });
            if (v >= 0)
                return pick(rules_.overTarget, v);
        } else {
            v = array_.lruAmong(
                s, [&](const Block &b) { return b.owner == core; });
            if (v >= 0)
                return pick(rules_.own, v);
        }
        return fallback(s);
    }

    CacheConfig config_;
    int cores_;
    PartitionScheme scheme_;
    WayAllocationTable alloc_;
    unsigned shift_;
    std::uint64_t mask_;
    StampedArray array_;
    std::vector<unsigned> counts_;
    std::vector<std::uint64_t> gcounts_;
    std::vector<CoreCacheStats> stats_;
    RuleCounts rules_;
};

/** Sampled shadow tags: plain LRU within baseline_ways ways. */
class DuplicateTagArray
{
  public:
    DuplicateTagArray(const CacheConfig &l2, unsigned baseline_ways,
                      unsigned period)
        : period_(period), shift_(floorLog2(l2.blockSize)),
          mask_(l2.numSets() - 1),
          array_((l2.numSets() + period - 1) / period, baseline_ways)
    {
    }

    bool
    observe(Addr addr, bool main_hit)
    {
        const Addr ba = addr >> shift_;
        const std::uint64_t set = ba & mask_;
        if (set % period_ != 0)
            return false;
        ++sampled_;
        mainMisses_ += !main_hit;
        const std::uint64_t s = set / period_;
        const int way = array_.find(s, ba);
        if (way >= 0) {
            array_.touch(s, static_cast<unsigned>(way));
            return true;
        }
        ++shadowMisses_;
        int victim = array_.firstInvalid(s);
        if (victim < 0)
            victim = array_.lruAmong(s, [](const Block &) { return true; });
        array_.fill(s, static_cast<unsigned>(victim), ba, false, 0);
        return true;
    }

    void
    reset()
    {
        array_.clear();
        sampled_ = mainMisses_ = shadowMisses_ = 0;
    }

    std::uint64_t sampledAccesses() const { return sampled_; }
    std::uint64_t mainMisses() const { return mainMisses_; }
    std::uint64_t shadowMisses() const { return shadowMisses_; }

  private:
    unsigned period_;
    unsigned shift_;
    std::uint64_t mask_;
    StampedArray array_;
    std::uint64_t sampled_ = 0;
    std::uint64_t mainMisses_ = 0;
    std::uint64_t shadowMisses_ = 0;
};

} // namespace ref
} // namespace cmpqos

#endif // CMPQOS_TESTS_CACHE_REFERENCE_CACHES_HH
