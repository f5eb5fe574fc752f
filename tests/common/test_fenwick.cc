/**
 * @file
 * Unit tests for the Fenwick tree (order-statistics substrate of the
 * stack-distance sampler).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/fenwick.hh"
#include "common/random.hh"

namespace cmpqos
{
namespace
{

TEST(FenwickTree, StartsEmpty)
{
    FenwickTree t(16);
    EXPECT_EQ(t.size(), 16u);
    EXPECT_EQ(t.total(), 0);
    EXPECT_EQ(t.prefixSum(15), 0);
}

TEST(FenwickTree, SingleAdd)
{
    FenwickTree t(8);
    t.add(3, 5);
    EXPECT_EQ(t.total(), 5);
    EXPECT_EQ(t.prefixSum(2), 0);
    EXPECT_EQ(t.prefixSum(3), 5);
    EXPECT_EQ(t.prefixSum(7), 5);
}

TEST(FenwickTree, PrefixSumsMatchNaive)
{
    const std::size_t n = 64;
    FenwickTree t(n);
    std::vector<std::int64_t> naive(n, 0);
    Rng rng(42);
    for (int iter = 0; iter < 500; ++iter) {
        const std::size_t idx =
            static_cast<std::size_t>(rng.uniformInt(n));
        const std::int64_t delta =
            static_cast<std::int64_t>(rng.uniformInt(10));
        t.add(idx, delta);
        naive[idx] += delta;
    }
    std::int64_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
        run += naive[i];
        EXPECT_EQ(t.prefixSum(i), run) << "at index " << i;
    }
}

TEST(FenwickTree, RangeSum)
{
    FenwickTree t(10);
    for (std::size_t i = 0; i < 10; ++i)
        t.add(i, static_cast<std::int64_t>(i));
    EXPECT_EQ(t.rangeSum(0, 9), 45);
    EXPECT_EQ(t.rangeSum(3, 5), 3 + 4 + 5);
    EXPECT_EQ(t.rangeSum(9, 9), 9);
}

TEST(FenwickTree, FindKthOnUnitSlots)
{
    FenwickTree t(32);
    // Occupy slots 4, 9, 17, 30.
    for (std::size_t s : {4u, 9u, 17u, 30u})
        t.add(s, 1);
    EXPECT_EQ(t.findKth(1), 4u);
    EXPECT_EQ(t.findKth(2), 9u);
    EXPECT_EQ(t.findKth(3), 17u);
    EXPECT_EQ(t.findKth(4), 30u);
}

TEST(FenwickTree, FindKthWithWeights)
{
    FenwickTree t(8);
    t.add(1, 3);
    t.add(5, 2);
    EXPECT_EQ(t.findKth(1), 1u);
    EXPECT_EQ(t.findKth(3), 1u);
    EXPECT_EQ(t.findKth(4), 5u);
    EXPECT_EQ(t.findKth(5), 5u);
}

TEST(FenwickTree, FindKthAfterRemoval)
{
    FenwickTree t(16);
    for (std::size_t i = 0; i < 16; ++i)
        t.add(i, 1);
    t.add(7, -1);
    EXPECT_EQ(t.findKth(8), 8u); // slot 7 no longer counts
    EXPECT_EQ(t.total(), 15);
}

TEST(FenwickTree, FindKthRandomizedAgainstNaive)
{
    const std::size_t n = 128;
    FenwickTree t(n);
    std::vector<int> occ(n, 0);
    Rng rng(7);
    for (int iter = 0; iter < 300; ++iter) {
        const std::size_t idx =
            static_cast<std::size_t>(rng.uniformInt(n));
        if (occ[idx] == 0) {
            occ[idx] = 1;
            t.add(idx, 1);
        } else {
            occ[idx] = 0;
            t.add(idx, -1);
        }
        // Check a random rank.
        if (t.total() > 0) {
            const std::int64_t k = static_cast<std::int64_t>(
                1 + rng.uniformInt(static_cast<std::uint64_t>(t.total())));
            std::int64_t run = 0;
            std::size_t expect = 0;
            for (std::size_t i = 0; i < n; ++i) {
                run += occ[i];
                if (run >= k) {
                    expect = i;
                    break;
                }
            }
            EXPECT_EQ(t.findKth(k), expect);
        }
    }
}


TEST(FenwickTree, TakeKthMatchesFindThenRemove)
{
    Rng rng(11);
    for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 1000u, 4096u}) {
        std::vector<std::uint32_t> counts(n);
        for (auto &c : counts)
            c = static_cast<std::uint32_t>(rng.uniformInt(4));
        counts[rng.uniformInt(n)] += 1; // never all empty
        FenwickTree taken;
        taken.assign(n, [&](std::size_t i) { return counts[i]; });
        FenwickTree found = taken;
        // Take every unit in random order, comparing all prefix sums
        // after the 1st, 2nd, 4th, ... take and after the last.
        for (std::size_t takes = 1; taken.total() > 0; ++takes) {
            const auto k = static_cast<std::uint32_t>(1 + rng.uniformInt(
                static_cast<std::uint64_t>(taken.total())));
            std::uint32_t take_rank = k;
            std::uint32_t find_rank = k;
            const std::size_t idx = taken.takeKthRank(take_rank);
            ASSERT_EQ(idx, found.findKthRank(find_rank))
                << "n=" << n << " k=" << k;
            ASSERT_EQ(take_rank, find_rank) << "n=" << n << " k=" << k;
            found.add(idx, -1);
            ASSERT_EQ(taken.total(), found.total());
            if ((takes & (takes - 1)) != 0 && taken.total() > 0)
                continue;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(taken.prefixSum(i), found.prefixSum(i))
                    << "n=" << n << " after " << takes
                    << " takes, at index " << i;
        }
    }
}

} // namespace
} // namespace cmpqos
