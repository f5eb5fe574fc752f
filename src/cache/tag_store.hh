/**
 * @file
 * The tag-store kernel under every tag array: the private L1s, the
 * partitioned L2 and the duplicate tags (DESIGN.md §3.1).
 *
 * Each set keeps one record: three byte lanes with one byte per way,
 * padded to a multiple of 16 ways so that SSE2 compares 16 ways at a
 * time, then a mask of the dirty ways and one 8-byte tag per way (the
 * block address, emptyTag when the way holds nothing). The lanes are:
 *  - digests: the top 8 bits of a multiplicative hash of the tag;
 *  - ages: 0 for the most recently used way up to ways-1 for the
 *    least recently used one, empty ways included;
 *  - owners: the way's owner, emptyOwner when the way is empty.
 * Padding lanes hold padAge and padOwner, which no compare selects.
 * The owners' way counts sit apart in a dense byte array, so a sweep
 * over every set's occupancy reads few host cache lines.
 *
 * A replacement rule is a mask of ways, and its victim the candidate
 * of the largest age. Ages order a set's ways as the stamps of stamped
 * blocks do, reversed, so this is exact with respect to them. Empty
 * ways are taken lowest index first.
 */

#ifndef CMPQOS_CACHE_TAG_STORE_HH
#define CMPQOS_CACHE_TAG_STORE_HH

#ifndef __SSE2__
#error "TagStore compares 16 ways at a time with SSE2 (the x86-64 baseline)"
#endif

#include <emmintrin.h>

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
        : ways_(ways), lanes_((ways + 15) / 16 * 16), owners_(owners),
          all_(ways >= maxWays ? ~WayMask{0} : (WayMask{1} << ways) - 1),
          dirtyAt_(3 * lanes_ / 8), stride_(dirtyAt_ + 1 + ways),
          words_(sets * stride_),
          counts_(sets * static_cast<std::uint64_t>(owners))
    {
        cmpqos_assert(sets > 0, "need at least one set");
        cmpqos_assert(ways > 0 && ways <= maxWays, "%u ways", ways);
        cmpqos_assert(owners > 0 && owners < padOwner, "%d owners", owners);
        clear();
    }

    /** The byte a lookup compares before the full tag. */
    static std::uint8_t
    digest(Addr tag)
    {
        return static_cast<std::uint8_t>((tag * 0x9E3779B97F4A7C15ULL) >> 56);
    }

    /** Every way of a set. */
    WayMask allWays() const { return all_; }

    /** Way of @p set holding @p tag, or -1. */
    int
    find(std::uint64_t set, Addr tag) const
    {
        const Addr *tags = &words_[set * stride_ + dirtyAt_ + 1];
        for (WayMask m = match(set, Digest, digest(tag)) & all_; m != 0;
             m &= m - 1)
            if (tags[lowestWay(m)] == tag)
                return static_cast<int>(lowestWay(m));
        return -1;
    }

    /** Ways of @p set that @p owner holds. */
    WayMask
    owned(std::uint64_t set, int owner) const
    {
        return match(set, Owner, static_cast<std::uint8_t>(owner));
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
        if (candidates == 0)
            cmpqos_panic("no victim among candidate ways");
        // Candidate ages (0 elsewhere), folded to their maximum in lane 0.
        const std::uint8_t *ages = lane(set, Age);
        __m128i oldest = _mm_setzero_si128();
        for (unsigned g = 0; g < lanes_; g += 16) {
            const __m128i picked =
                _mm_and_si128(load(ages + g), spread(candidates >> g));
            oldest = _mm_max_epu8(oldest, picked);
        }
        oldest = _mm_max_epu8(oldest, _mm_srli_si128(oldest, 8));
        oldest = _mm_max_epu8(oldest, _mm_srli_si128(oldest, 4));
        oldest = _mm_max_epu8(oldest, _mm_srli_si128(oldest, 2));
        oldest = _mm_max_epu8(oldest, _mm_srli_si128(oldest, 1));
        const auto age = static_cast<std::uint8_t>(_mm_cvtsi128_si32(oldest));
        return lowestWay(match(set, Age, age) & candidates);
    }

    /** Plain LRU replacement: the lowest empty way, else the LRU way. */
    unsigned
    lruVictim(std::uint64_t set) const
    {
        const WayMask empty = match(set, Owner, emptyOwner);
        return lowestWay(empty != 0 ? empty : match(set, Age, ways_ - 1));
    }

    /** A hit on @p way: it becomes most recently used; a write dirties it. */
    void
    touch(std::uint64_t set, unsigned way, bool is_write)
    {
        words_[set * stride_ + dirtyAt_] |= WayMask{is_write} << way;
        makeMru(set, way);
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
        WayMask &dirty_ways = words_[set * stride_ + dirtyAt_];
        Addr &slot = words_[set * stride_ + dirtyAt_ + 1 + way];
        const int old = setOwner(set, way, static_cast<std::uint8_t>(owner));
        if (old >= 0) {
            displaced.evicted = true;
            displaced.victimAddr = slot;
            displaced.writeback = (dirty_ways & bit) != 0;
        }
        slot = tag;
        lane(set, Digest)[way] = digest(tag);
        ++counts_[countIndex(set, owner)];
        dirty_ways = (dirty_ways & ~bit) | WayMask{dirty} << way;
        makeMru(set, way);
        return old;
    }

    /** Empty @p way; its age does not change. */
    void
    invalidate(std::uint64_t set, unsigned way)
    {
        setOwner(set, way, emptyOwner);
        words_[set * stride_ + dirtyAt_ + 1 + way] = emptyTag;
    }

    /** Empty every set: build the first one, then copy it. */
    void
    clear()
    {
        std::uint64_t *first = words_.data();
        std::fill_n(first, stride_, 0);
        std::fill_n(first + dirtyAt_ + 1, ways_, emptyTag);
        for (unsigned w = 0; w < lanes_; ++w) {
            const bool real = w < ways_;
            lane(0, Age)[w] =
                static_cast<std::uint8_t>(real ? ways_ - 1 - w : padAge);
            lane(0, Owner)[w] = real ? emptyOwner : padOwner;
        }
        for (std::uint64_t at = stride_; at < words_.size(); at += stride_)
            std::copy_n(first, stride_, first + at);
        std::fill(counts_.begin(), counts_.end(), 0);
    }

  private:
    /** The byte lanes of a set, in record order. */
    enum Lane : unsigned { Digest, Age, Owner };

    static constexpr std::uint8_t emptyOwner = 0xFF;
    static constexpr std::uint8_t padOwner = 0xFE;
    static constexpr std::uint8_t padAge = 127; // the largest signed byte

    static __m128i
    load(const std::uint8_t *p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    }

    /** 16 lanes, each 0xFF where its bit of @p bits (low 16) is set. */
    static __m128i
    spread(WayMask bits)
    {
        const __m128i select = _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1,
                                             2, 4, 8, 16, 32, 64, -128);
        __m128i x = _mm_cvtsi32_si128(static_cast<int>(bits & 0xFFFF));
        x = _mm_unpacklo_epi8(x, x);
        x = _mm_unpacklo_epi16(x, x);
        x = _mm_unpacklo_epi32(x, x); // low byte in lanes 0-7, high in 8-15
        return _mm_cmpeq_epi8(_mm_and_si128(x, select), select);
    }

    std::uint64_t
    countIndex(std::uint64_t set, int owner) const
    {
        return set * static_cast<std::uint64_t>(owners_) +
               static_cast<std::uint64_t>(owner);
    }

    const std::uint8_t *
    lane(std::uint64_t set, Lane l) const
    {
        return reinterpret_cast<const std::uint8_t *>(&words_[set * stride_]) +
               l * lanes_;
    }
    std::uint8_t *
    lane(std::uint64_t set, Lane l)
    {
        return reinterpret_cast<std::uint8_t *>(&words_[set * stride_]) +
               l * lanes_;
    }

    /** Ways of @p set whose lane @p l holds @p value. */
    WayMask
    match(std::uint64_t set, Lane l, std::uint8_t value) const
    {
        const std::uint8_t *bytes = lane(set, l);
        const __m128i v = _mm_set1_epi8(static_cast<char>(value));
        WayMask m = 0;
        for (unsigned g = 0; g < lanes_; g += 16)
            m |= WayMask{static_cast<std::uint16_t>(
                     _mm_movemask_epi8(_mm_cmpeq_epi8(load(bytes + g), v)))}
                 << g;
        return m;
    }

    /**
     * Make @p way the most recently used of @p set: every younger way
     * ages by one and @p way, the only lane of its age, becomes 0.
     */
    void
    makeMru(std::uint64_t set, unsigned way)
    {
        std::uint8_t *age = lane(set, Age);
        const __m128i a = _mm_set1_epi8(static_cast<char>(age[way]));
        for (unsigned g = 0; g < lanes_; g += 16) {
            const __m128i v = load(age + g); // signed compares: ages < 128
            const __m128i aged = _mm_sub_epi8(v, _mm_cmpgt_epi8(a, v));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(age + g),
                             _mm_andnot_si128(_mm_cmpeq_epi8(a, v), aged));
        }
    }

    /** Give @p way to @p next; @return its old owner, or -1 if empty. */
    int
    setOwner(std::uint64_t set, unsigned way, std::uint8_t next)
    {
        std::uint8_t &owner = lane(set, Owner)[way];
        const int old = owner == emptyOwner ? -1 : owner;
        if (old >= 0)
            --counts_[countIndex(set, old)];
        owner = next;
        return old;
    }

    unsigned ways_;
    unsigned lanes_; // ways_ rounded up to a multiple of 16
    int owners_;
    WayMask all_;
    // Word offsets within a set: the three lanes at 0, then the dirty
    // mask at dirtyAt_ and the tags.
    unsigned dirtyAt_;
    unsigned stride_;
    std::vector<std::uint64_t> words_;
    std::vector<std::uint8_t> counts_; // per set, per owner
};

} // namespace cmpqos

#endif // CMPQOS_CACHE_TAG_STORE_HH
