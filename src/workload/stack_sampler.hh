/**
 * @file
 * An LRU stack that can be accessed *by stack distance* in
 * O(log n), used to synthesise memory reference streams with a
 * prescribed stack-distance (reuse-distance) distribution.
 *
 * Rationale: every result in the paper depends on a benchmark only
 * through its miss-rate-vs-allocated-capacity curve, and for an LRU
 * cache of capacity C that curve is P(stack distance > C). Sampling
 * distances from a parametric distribution and replaying the implied
 * block stream therefore reproduces a benchmark's cache behaviour
 * exactly where it matters, while exercising the real cache models.
 *
 * Implementation: live blocks occupy slots of a timestamp-ordered
 * array, and a bitmap marks the occupied slots, 64 to a word. A
 * Fenwick tree over the words' popcounts finds the word holding the
 * k-th occupied slot, and a broadword select finds the slot inside
 * it, so "the d-th most-recently-used block" is an order-statistics
 * query; the descent that finds a reused block also takes it out of
 * the tree. The word that pushes go into (the open word) is kept out
 * of the tree, so a push writes only the bitmap, and ranks past the
 * tree's total lie in that word. Storage follows the live set rather
 * than the cap: when the slots run out, the live ones are compacted
 * to the bottom in order, and the slot space doubles if that leaves
 * it more than half full (up to 4x the cap).
 */

#ifndef CMPQOS_WORKLOAD_STACK_SAMPLER_HH
#define CMPQOS_WORKLOAD_STACK_SAMPLER_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/fenwick.hh"
#include "common/types.hh"

namespace cmpqos
{

/**
 * LRU stack with order-statistics access.
 *
 * Block ids are dense, assigned on first touch, and recycled from the
 * coldest end once the live-block cap is hit (the victim is the LRU
 * block, which by construction is the least likely to be re-referenced).
 */
class LruStackSampler
{
  public:
    /**
     * Default live-block cap: 2^17 blocks, which cover 8MB of data in
     * 64B blocks, 4x the paper's L2.
     */
    static constexpr std::size_t defaultMaxLive = std::size_t{1} << 17;

    /**
     * @param max_live_blocks cap on tracked blocks; beyond this the
     *        LRU block is dropped from the stack. Choose at least the
     *        largest stack distance of interest. Memory follows the
     *        blocks actually live (4 to 16 bytes each), not this cap.
     */
    explicit LruStackSampler(std::size_t max_live_blocks = defaultMaxLive);

    /**
     * Access the block at stack distance @p d (1 = most recently
     * used). If fewer than d blocks are live, a new block is touched
     * instead. The touched block moves to the top of the stack.
     *
     * @return the block id touched
     */
    std::uint64_t accessAtDistance(std::uint64_t d);

    /** Touch a brand-new (cold) block. @return its block id. */
    std::uint64_t accessNew();

    /**
     * Touch @p count brand-new blocks, leaving the state that many
     * accessNew() calls would, in O(count / 64) plus one write per
     * block kept.
     */
    void accessNewBlocks(std::uint64_t count);

    /** Number of live blocks in the stack. */
    std::size_t liveBlocks() const { return liveCount_; }

    /** Total distinct blocks ever touched (= next fresh block id). */
    std::uint64_t totalBlocks() const { return nextBlockId_; }

    /**
     * The block id currently at stack distance @p d, without touching
     * it (for tests). d must be in [1, liveBlocks()].
     */
    std::uint64_t peekAtDistance(std::uint64_t d) const;

    /**
     * Visit every live block in recency order (LRU first, MRU last)
     * without touching recency state. Used to pre-fill caches with a
     * job's standing working set before steady-state measurement.
     */
    template <typename F>
    void
    forEachLive(F &&visit) const
    {
        for (std::size_t w = 0; w < occupied_.size(); ++w) {
            for (std::uint64_t bits = occupied_[w]; bits != 0;
                 bits &= bits - 1)
                visit(slotBlock_[w * 64 + static_cast<std::size_t>(
                                              std::countr_zero(bits))]);
        }
    }

  private:
    /** Claim @p count fresh block ids (fatal past 2^32); @return the first. */
    std::uint64_t claimIds(std::uint64_t count);

    /** Place @p block at the top of the stack. */
    void pushTop(std::uint32_t block);

    /** Clear occupied slot @p slot. */
    void vacate(std::size_t slot);

    /** Remove the LRU block from the stack entirely. */
    void dropLru();

    /** Slot holding the @p rank-th occupied slot from the bottom. */
    std::size_t slotOfRank(std::uint64_t rank) const;

    /** slotOfRank() that also vacates the slot, in one descent. */
    std::size_t takeRank(std::uint64_t rank);

    /**
     * Make room for @p count pushes past the live slots: compact, then
     * grow the slot space if it would be more than half full.
     */
    void makeRoom(std::size_t count);

    /** Renumber occupied slots densely from 0, keeping their order. */
    void compact();

    /** Rebuild wordCounts_ from the bitmap, every word included. */
    void recount();

    /** Mark slots [from, to) occupied in the bitmap. */
    void occupy(std::size_t from, std::size_t to);

    std::size_t maxLive_;
    /** Bit s % 64 of word s / 64 is set while slot s holds a block. */
    std::vector<std::uint64_t> occupied_;
    /** Popcount of each occupied_ word; 0 for the open word. */
    FenwickTree wordCounts_;
    /**
     * The word holding slot nextSlot_ - 1, whose count the tree leaves
     * out, or noOpenWord after recount() until the next push.
     */
    static constexpr std::size_t noOpenWord = ~std::size_t{0};
    std::size_t openWord_ = noOpenWord;
    /** slot -> block id (valid where occupied). */
    std::vector<std::uint32_t> slotBlock_;
    std::size_t nextSlot_ = 0;
    /** Every occupied_ word below this one is empty. */
    std::size_t lruWord_ = 0;
    std::size_t liveCount_ = 0;
    std::uint64_t nextBlockId_ = 0;
};

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_STACK_SAMPLER_HH
