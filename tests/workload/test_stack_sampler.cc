/**
 * @file
 * Unit tests for the order-statistics LRU stack sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workload/stack_sampler.hh"

namespace cmpqos
{
namespace
{

TEST(LruStackSampler, ColdAccessesCreateNewBlocks)
{
    LruStackSampler s;
    EXPECT_EQ(s.accessNew(), 0u);
    EXPECT_EQ(s.accessNew(), 1u);
    EXPECT_EQ(s.accessNew(), 2u);
    EXPECT_EQ(s.liveBlocks(), 3u);
}

TEST(LruStackSampler, DistanceOneIsMru)
{
    LruStackSampler s;
    s.accessNew(); // 0
    s.accessNew(); // 1
    s.accessNew(); // 2, MRU
    EXPECT_EQ(s.accessAtDistance(1), 2u);
    EXPECT_EQ(s.accessAtDistance(1), 2u);
}

TEST(LruStackSampler, DistanceMovesBlockToTop)
{
    LruStackSampler s;
    s.accessNew(); // 0
    s.accessNew(); // 1
    s.accessNew(); // 2
    // Stack (MRU->LRU): 2 1 0. Touch distance 3 -> block 0.
    EXPECT_EQ(s.accessAtDistance(3), 0u);
    // Now: 0 2 1.
    EXPECT_EQ(s.peekAtDistance(1), 0u);
    EXPECT_EQ(s.peekAtDistance(2), 2u);
    EXPECT_EQ(s.peekAtDistance(3), 1u);
}

TEST(LruStackSampler, DistanceBeyondLiveIsCold)
{
    LruStackSampler s;
    s.accessNew();
    const std::uint64_t blk = s.accessAtDistance(10);
    EXPECT_EQ(blk, 1u); // a fresh block
    EXPECT_EQ(s.liveBlocks(), 2u);
}

TEST(LruStackSampler, MatchesNaiveLruStack)
{
    // Property check: replay a random distance stream against a naive
    // list-based LRU stack and compare touched block ids.
    LruStackSampler s;
    std::list<std::uint64_t> naive; // front = MRU
    std::uint64_t next_id = 0;
    Rng rng(321);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t d = 1 + rng.uniformInt(60);
        std::uint64_t expect;
        if (d > naive.size()) {
            expect = next_id++;
            naive.push_front(expect);
        } else {
            auto it = naive.begin();
            std::advance(it, static_cast<long>(d - 1));
            expect = *it;
            naive.erase(it);
            naive.push_front(expect);
        }
        ASSERT_EQ(s.accessAtDistance(d), expect) << "iteration " << i;
    }
    EXPECT_EQ(s.liveBlocks(), naive.size());
}

TEST(LruStackSampler, CompactionPreservesOrder)
{
    // Force many accesses so slot positions are exhausted and the
    // sampler compacts; order must survive.
    LruStackSampler s(64); // compacts about every 64 pushes
    for (int i = 0; i < 64; ++i)
        s.accessNew();
    Rng rng(5);
    std::list<std::uint64_t> naive;
    for (std::uint64_t b = 63;; --b) {
        naive.push_back(63 - b); // LRU at back: 0 is LRU
        if (b == 0)
            break;
    }
    naive.reverse(); // front=MRU=63 ... back=LRU=0
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t d = 1 + rng.uniformInt(64);
        auto it = naive.begin();
        std::advance(it, static_cast<long>(d - 1));
        const std::uint64_t expect = *it;
        naive.erase(it);
        naive.push_front(expect);
        ASSERT_EQ(s.accessAtDistance(d), expect) << "iteration " << i;
    }
}

TEST(LruStackSampler, LiveBlockCapDropsLru)
{
    LruStackSampler s(8);
    for (int i = 0; i < 8; ++i)
        s.accessNew();
    EXPECT_EQ(s.liveBlocks(), 8u);
    s.accessNew(); // block 0 (LRU) should be dropped
    EXPECT_EQ(s.liveBlocks(), 8u);
    // Deepest stack entry is now block 1.
    EXPECT_EQ(s.peekAtDistance(8), 1u);
}

/**
 * Brute-force reference for the sampler: a std::list LRU stack (front
 * = MRU) with the same rule of dropping the LRU block once the cap is
 * reached.
 */
class ListLruStack
{
  public:
    explicit ListLruStack(std::size_t max_live) : maxLive_(max_live) {}

    std::uint64_t
    accessNew()
    {
        if (stack_.size() >= maxLive_)
            stack_.pop_back();
        stack_.push_front(nextBlock_);
        return nextBlock_++;
    }

    std::uint64_t
    accessAtDistance(std::uint64_t d)
    {
        if (d > stack_.size())
            return accessNew();
        const auto it = at(d);
        const std::uint64_t block = *it;
        stack_.splice(stack_.begin(), stack_, it);
        return block;
    }

    std::uint64_t peek(std::uint64_t d) { return *at(d); }
    std::size_t live() const { return stack_.size(); }
    std::uint64_t total() const { return nextBlock_; }

    /** Live blocks LRU first, the order forEachLive() visits them. */
    std::vector<std::uint64_t>
    lruFirst() const
    {
        return {stack_.rbegin(), stack_.rend()};
    }

  private:
    /** The entry at depth @p d, walked to from the nearer end. */
    std::list<std::uint64_t>::iterator
    at(std::uint64_t d)
    {
        const auto n = static_cast<std::uint64_t>(stack_.size());
        if (d <= n / 2)
            return std::next(stack_.begin(), static_cast<long>(d - 1));
        return std::prev(stack_.end(), static_cast<long>(n - d + 1));
    }

    std::size_t maxLive_;
    std::list<std::uint64_t> stack_;
    std::uint64_t nextBlock_ = 0;
};

/** Sampler caps under test; 0 stands for the default constructor. */
class SamplerOracle : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SamplerOracle, MatchesListStackInLockstep)
{
    const std::size_t param = GetParam();
    LruStackSampler s = param ? LruStackSampler(param) : LruStackSampler();
    const std::size_t cap = param ? param : std::size_t{1} << 17;
    ListLruStack ref(cap);
    Rng rng(1000 + param);

    // Full-range distances walk the list, so they get rarer as the
    // stack deepens; the near-top and near-bottom mixes keep reaching
    // both ends of the stack cheaply. About a quarter of operations
    // touch a fresh block, so even the default cap fills up and then
    // churns at the cap, crossing every slot growth and compaction
    // boundary on the way.
    constexpr int ops = 1'000'000;
    for (int i = 0; i < ops; ++i) {
        const auto live = static_cast<std::uint64_t>(ref.live());
        const std::uint64_t full_pct = live > 4096 ? 1 : 15;
        const std::uint64_t pick = rng.uniformInt(100);
        std::uint64_t got = 0, expect = 0;
        if (pick < 18 || live == 0) {
            got = s.accessNew();
            expect = ref.accessNew();
        } else {
            std::uint64_t d;
            if (pick < 30)
                d = 1;
            else if (pick < 50)
                d = 2 + rng.uniformInt(std::min<std::uint64_t>(live, 64));
            else if (pick < 60)
                d = live - std::min<std::uint64_t>(
                               live - 1, rng.uniformInt(64));
            else if (pick < 66)
                d = live;
            else if (pick < 72)
                d = live + 1 + rng.uniformInt(1000);
            else if (pick < 72 + full_pct)
                d = live < 2 ? 1 : 2 + rng.uniformInt(live - 1);
            else
                d = 1 + rng.uniformInt(std::min<std::uint64_t>(live, 512));
            got = s.accessAtDistance(d);
            expect = ref.accessAtDistance(d);
        }
        ASSERT_EQ(got, expect) << "op " << i;
        ASSERT_EQ(s.liveBlocks(), ref.live()) << "op " << i;
        ASSERT_EQ(s.totalBlocks(), ref.total()) << "op " << i;

        const auto now_live = static_cast<std::uint64_t>(ref.live());
        const std::uint64_t depth =
            i % 1000 == 0
                ? 1 + rng.uniformInt(now_live)
                : (i % 2 ? 1 + rng.uniformInt(std::min<std::uint64_t>(
                                   now_live, 32))
                         : now_live - rng.uniformInt(std::min<std::uint64_t>(
                                          now_live, 32)));
        ASSERT_EQ(s.peekAtDistance(depth), ref.peek(depth))
            << "op " << i << " depth " << depth;

        if (i % 10'000 == 0 || i == ops - 1) {
            std::vector<std::uint64_t> order;
            order.reserve(s.liveBlocks());
            s.forEachLive([&](std::uint64_t b) { order.push_back(b); });
            ASSERT_EQ(order, ref.lruFirst()) << "op " << i;
        }
    }
    // The stream must have reached the cap and churned there.
    EXPECT_EQ(s.liveBlocks(), cap);
    EXPECT_GT(s.totalBlocks(), cap + cap / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Caps, SamplerOracle,
    ::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{64},
                      std::size_t{4096}, std::size_t{0}),
    [](const ::testing::TestParamInfo<std::size_t> &param_info) {
        return param_info.param ? "cap" + std::to_string(param_info.param)
                          : std::string("default");
    });

} // namespace
} // namespace cmpqos
