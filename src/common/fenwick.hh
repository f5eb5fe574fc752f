/**
 * @file
 * A Fenwick (binary indexed) tree over 32-bit counts, with an
 * O(log n) branch-free "find the index holding the k-th unit" query
 * and a variant that also removes that unit in the same descent.
 *
 * Used by the LRU stack-distance sampler (src/workload) over the
 * popcounts of its 64-slot occupancy words, to locate the word that
 * holds the d-th most-recently-used block.
 */

#ifndef CMPQOS_COMMON_FENWICK_HH
#define CMPQOS_COMMON_FENWICK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace cmpqos
{

/**
 * Fenwick tree over an array of non-negative counts whose sum fits in
 * 32 bits. Internally the tree spans the next power of two, so the
 * k-th-unit descent needs no bounds checks.
 */
class FenwickTree
{
  public:
    /** Build a tree of @p size zero-initialised slots. */
    explicit FenwickTree(std::size_t size = 0)
    {
        assign(size, [](std::size_t) { return 0u; });
    }

    /**
     * Rebuild over @p size slots, slot i holding @p count_of(i), in
     * O(size).
     */
    template <typename F>
    void
    assign(std::size_t size, F &&count_of)
    {
        size_ = size;
        std::size_t span = 1;
        while (span < size)
            span <<= 1;
        tree_.assign(span + 1, 0);
        for (std::size_t i = 1; i <= span; ++i) {
            if (i <= size)
                tree_[i] += static_cast<std::uint32_t>(count_of(i - 1));
            const std::size_t parent = i + (i & (~i + 1));
            if (parent <= span)
                tree_[parent] += tree_[i];
        }
    }

    /** Number of addressable slots. */
    std::size_t size() const { return size_; }

    /** Sum of all slot values. */
    std::int64_t total() const { return tree_.back(); }

    /** Add @p delta to slot @p idx (0-based). */
    void
    add(std::size_t idx, std::int64_t delta)
    {
        cmpqos_assert(idx < size_, "fenwick index %zu out of range", idx);
        const auto d = static_cast<std::uint32_t>(delta);
        for (std::size_t i = idx + 1; i < tree_.size(); i += i & (~i + 1))
            tree_[i] += d;
    }

    /** Prefix sum of slots [0, idx] (0-based, inclusive). */
    std::int64_t
    prefixSum(std::size_t idx) const
    {
        cmpqos_assert(idx < size_, "fenwick index %zu out of range", idx);
        std::uint32_t sum = 0;
        for (std::size_t i = idx + 1; i > 0; i -= i & (~i + 1))
            sum += tree_[i];
        return sum;
    }

    /** Sum of slots in [lo, hi] inclusive. */
    std::int64_t
    rangeSum(std::size_t lo, std::size_t hi) const
    {
        cmpqos_assert(lo <= hi, "fenwick range inverted");
        std::int64_t s = prefixSum(hi);
        if (lo > 0)
            s -= prefixSum(lo - 1);
        return s;
    }

    /**
     * Find the smallest index idx such that prefixSum(idx) >= k,
     * for k in [1, total()].
     */
    std::size_t
    findKth(std::int64_t k) const
    {
        cmpqos_assert(k >= 1 && k <= total(),
                      "findKth k=%lld out of [1,%lld]",
                      static_cast<long long>(k),
                      static_cast<long long>(total()));
        auto rank = static_cast<std::uint32_t>(k);
        return findKthRank(rank);
    }

    /**
     * findKth() that also says where in its slot the k-th unit lies:
     * on return @p k is that unit's 1-based rank among the slot's own.
     */
    std::size_t
    findKthRank(std::uint32_t &k) const
    {
        cmpqos_assert(k >= 1 && k <= tree_.back(),
                      "findKth k=%u out of [1,%u]", k, tree_.back());
        // Descend from the root's children. Which way each step goes is
        // data dependent, so it is arithmetic (which GCC turns into a
        // conditional move and a mask) rather than a mispredicted
        // branch.
        std::size_t pos = 0;
        for (std::size_t step = (tree_.size() - 1) / 2; step > 0;
             step >>= 1) {
            const std::uint32_t below = tree_[pos + step];
            const std::uint32_t take = below < k;
            pos += step * take;
            k -= below & (0u - take);
        }
        return pos; // 0-based slot index
    }

    /**
     * findKthRank() that also removes the unit it finds, as
     * add(idx, -1) would, in the same descent. The nodes the descent
     * does not step past are exactly those covering the found slot,
     * so each is decremented as it is read, and then the root.
     */
    std::size_t
    takeKthRank(std::uint32_t &k)
    {
        cmpqos_assert(k >= 1 && k <= tree_.back(),
                      "takeKth k=%u out of [1,%u]", k, tree_.back());
        std::size_t pos = 0;
        for (std::size_t step = (tree_.size() - 1) / 2; step > 0;
             step >>= 1) {
            std::uint32_t &node = tree_[pos + step];
            const std::uint32_t below = node;
            const std::uint32_t take = below < k;
            node = below - (take ^ 1u);
            pos += step * take;
            k -= below & (0u - take);
        }
        --tree_.back();
        return pos; // 0-based slot index
    }

  private:
    std::size_t size_ = 0;
    /** 1-based tree over a power-of-two span of slots. */
    std::vector<std::uint32_t> tree_;
};

} // namespace cmpqos

#endif // CMPQOS_COMMON_FENWICK_HH
