/**
 * @file
 * The tag-store kernel under every tag array: the private L1s, the
 * partitioned L2 and the duplicate tags.
 *
 * Each set keeps, contiguously:
 *  - one 8-byte tag per way, the block address (emptyTag when the
 *    way holds nothing);
 *  - per owner, a mask of the ways it holds (bit w for way w);
 *  - a mask of the dirty ways;
 *  - a recency order: one byte per way naming a way, LRU first.
 * The owners' way counts sit apart, one byte each in a dense array,
 * so a sweep over every set's occupancy reads a few host cache lines
 * rather than one per set.
 *
 * A replacement rule is then a union of owner masks, and its victim
 * the first way of that union in recency order. This is exact with
 * respect to stamped blocks, where every touch takes the next value
 * of a counter that only a flush clears after invalidating
 * everything: the stamps of a set's valid blocks are distinct and
 * order them as the recency list does, so the least-stamped block of
 * any subset is the subset's first way in recency order. Empty ways
 * are taken lowest index first.
 */

#ifndef CMPQOS_CACHE_TAG_STORE_HH
#define CMPQOS_CACHE_TAG_STORE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace cmpqos
{

/** Outcome of a single cache access. */
struct AccessResult
{
    bool hit = false;
    /** A dirty block was evicted and must be written back. */
    bool writeback = false;
    /** Block address of the evicted victim (valid iff evicted). */
    Addr victimAddr = 0;
    bool evicted = false;
};

/** A set of ways of one cache set: bit w stands for way w. */
using WayMask = std::uint64_t;

/** Widest associativity a WayMask can describe. */
constexpr unsigned maxWays = 64;

/** Lowest way in the non-empty @p ways. */
inline unsigned
lowestWay(WayMask ways)
{
    return static_cast<unsigned>(std::countr_zero(ways));
}

/** Tags, ownership, dirtiness and recency of every set of one array. */
class TagStore
{
  public:
    /** Tag of an empty way; no block address (addr >> shift) is this. */
    static constexpr Addr emptyTag = ~Addr{0};

    /** @p ways at most maxWays; owners are 0..owners-1. */
    TagStore(std::uint64_t sets, unsigned ways, int owners)
        : ways_(ways), owners_(owners),
          all_(ways >= maxWays ? ~WayMask{0} : (WayMask{1} << ways) - 1),
          dirtyAt_(ways + static_cast<unsigned>(owners)),
          orderAt_(dirtyAt_ + 1), stride_(orderAt_ + (ways + 7) / 8),
          words_(sets * stride_),
          counts_(sets * static_cast<std::uint64_t>(owners))
    {
        cmpqos_assert(ways > 0 && ways <= maxWays, "%u ways", ways);
        cmpqos_assert(owners > 0, "need at least one owner");
        clear();
    }

    /** Every way of a set. */
    WayMask allWays() const { return all_; }

    /** Way of @p set holding @p tag, or -1. */
    int
    find(std::uint64_t set, Addr tag) const
    {
        const Addr *tags = &words_[set * stride_];
        for (unsigned w = 0; w < ways_; ++w)
            if (tags[w] == tag)
                return static_cast<int>(w);
        return -1;
    }

    /** Ways of @p set that @p owner holds. */
    WayMask
    owned(std::uint64_t set, int owner) const
    {
        return words_[set * stride_ + ways_ + static_cast<unsigned>(owner)];
    }

    /** Number of ways of @p set that @p owner holds. */
    unsigned
    count(std::uint64_t set, int owner) const
    {
        return counts_[countIndex(set, owner)];
    }

    /** Blocks held in @p set, by any owner. */
    unsigned
    occupancy(std::uint64_t set) const
    {
        unsigned n = 0;
        for (int o = 0; o < owners_; ++o)
            n += count(set, o);
        return n;
    }

    /** The way of the non-empty @p candidates used longest ago. */
    unsigned
    lru(std::uint64_t set, WayMask candidates) const
    {
        const std::uint8_t *order = recency(set);
        for (unsigned i = 0; i < ways_; ++i)
            if ((candidates >> order[i]) & 1)
                return order[i];
        cmpqos_panic("no victim among candidate ways");
    }

    /** Plain LRU replacement: the lowest empty way, else the LRU way. */
    unsigned
    lruVictim(std::uint64_t set) const
    {
        WayMask held = 0;
        for (int o = 0; o < owners_; ++o)
            held |= owned(set, o);
        return held != all_ ? lowestWay(all_ & ~held) : recency(set)[0];
    }

    /** A hit on @p way: it becomes most recently used; a write dirties it. */
    void
    touch(std::uint64_t set, unsigned way, bool is_write)
    {
        if (is_write)
            words_[set * stride_ + dirtyAt_] |= WayMask{1} << way;
        // Search from the MRU end: a hit is mostly on a recent way.
        std::uint8_t *order = recency(set);
        unsigned i = ways_ - 1;
        while (order[i] != way)
            --i;
        toMru(order, i);
    }

    /**
     * Install @p tag in @p way for @p owner as the most recently used
     * block, reporting the block it displaces in @p displaced.
     * @return the displaced block's owner, or -1 if the way was empty
     */
    int
    fill(std::uint64_t set, unsigned way, Addr tag, int owner, bool dirty,
         AccessResult &displaced)
    {
        const WayMask bit = WayMask{1} << way;
        std::uint64_t *base = &words_[set * stride_];
        WayMask &dirty_ways = base[dirtyAt_];
        const int old = release(set, way);
        if (old >= 0) {
            displaced.evicted = true;
            displaced.victimAddr = base[way];
            displaced.writeback = (dirty_ways & bit) != 0;
        }
        base[way] = tag;
        base[ways_ + static_cast<unsigned>(owner)] |= bit;
        ++counts_[countIndex(set, owner)];
        dirty_ways = dirty ? dirty_ways | bit : dirty_ways & ~bit;
        // Search from the LRU end: a victim is mostly an old way.
        std::uint8_t *order = recency(set);
        unsigned i = 0;
        while (order[i] != way)
            ++i;
        toMru(order, i);
        return old;
    }

    /** Empty @p way; its place in the recency order does not matter. */
    void
    invalidate(std::uint64_t set, unsigned way)
    {
        release(set, way);
        words_[set * stride_ + way] = emptyTag;
    }

    /** Empty every set. */
    void
    clear()
    {
        std::fill(words_.begin(), words_.end(), 0);
        std::fill(counts_.begin(), counts_.end(), 0);
        for (std::uint64_t set = 0; set < words_.size() / stride_; ++set) {
            std::fill_n(&words_[set * stride_], ways_, emptyTag);
            std::uint8_t *order = recency(set);
            for (unsigned w = 0; w < ways_; ++w)
                order[w] = static_cast<std::uint8_t>(w);
        }
    }

  private:
    std::uint64_t
    countIndex(std::uint64_t set, int owner) const
    {
        return set * static_cast<std::uint64_t>(owners_) +
               static_cast<std::uint64_t>(owner);
    }

    /** The recency order of @p set, LRU first. */
    const std::uint8_t *
    recency(std::uint64_t set) const
    {
        return reinterpret_cast<const std::uint8_t *>(
            &words_[set * stride_ + orderAt_]);
    }
    std::uint8_t *
    recency(std::uint64_t set)
    {
        return reinterpret_cast<std::uint8_t *>(
            &words_[set * stride_ + orderAt_]);
    }

    /** Move the way at @p pos of a recency order to its MRU end. */
    void
    toMru(std::uint8_t *order, unsigned pos) const
    {
        const std::uint8_t way = order[pos];
        for (; pos + 1 < ways_; ++pos)
            order[pos] = order[pos + 1];
        order[ways_ - 1] = way;
    }

    /** Drop @p way from its owner's mask; @return that owner or -1. */
    int
    release(std::uint64_t set, unsigned way)
    {
        const WayMask bit = WayMask{1} << way;
        WayMask *masks = &words_[set * stride_ + ways_];
        for (int o = 0; o < owners_; ++o) {
            if (masks[o] & bit) {
                masks[o] &= ~bit;
                --counts_[countIndex(set, o)];
                return o;
            }
        }
        return -1;
    }

    unsigned ways_;
    int owners_;
    WayMask all_;
    // Word offsets within a set: tags at 0, owner masks at ways_, then
    // the dirty mask and the order bytes.
    unsigned dirtyAt_;
    unsigned orderAt_;
    unsigned stride_;
    std::vector<std::uint64_t> words_;
    std::vector<std::uint8_t> counts_; // per set, per owner
};

} // namespace cmpqos

#endif // CMPQOS_CACHE_TAG_STORE_HH
