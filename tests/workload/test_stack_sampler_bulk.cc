/**
 * @file
 * Unit tests for the sampler's bulk fill of fresh blocks, which the
 * generator uses to warm a job's reuse stack.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "workload/stack_sampler.hh"

namespace cmpqos
{
namespace
{

TEST(LruStackSampler, BulkNewBlocksMatchRepeatedAccessNew)
{
    // Empty stacks, partly filled ones, and runs that overflow the cap
    // (beyond it, or longer than it) must all end in the same stack.
    struct Case
    {
        std::size_t cap;
        int before;
        std::uint64_t count;
    };
    for (const Case &c : {Case{8, 0, 0}, Case{8, 0, 5}, Case{8, 3, 5},
                         Case{8, 6, 5}, Case{8, 4, 20}, Case{100, 0, 100},
                         Case{1000, 700, 200}, Case{1000, 900, 700},
                         Case{5000, 0, 4999}}) {
        LruStackSampler bulk(c.cap), single(c.cap);
        Rng rng(c.cap + c.count);
        for (int i = 0; i < c.before; ++i) {
            const std::uint64_t d = 1 + rng.uniformInt(c.cap);
            ASSERT_EQ(bulk.accessAtDistance(d), single.accessAtDistance(d));
        }
        bulk.accessNewBlocks(c.count);
        for (std::uint64_t i = 0; i < c.count; ++i)
            single.accessNew();
        ASSERT_EQ(bulk.liveBlocks(), single.liveBlocks()) << c.cap;
        ASSERT_EQ(bulk.totalBlocks(), single.totalBlocks()) << c.cap;
        std::vector<std::uint64_t> a, b;
        bulk.forEachLive([&](std::uint64_t x) { a.push_back(x); });
        single.forEachLive([&](std::uint64_t x) { b.push_back(x); });
        ASSERT_EQ(a, b) << c.cap;
        // And they keep agreeing afterwards.
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t d = 1 + rng.uniformInt(c.cap + 2);
            ASSERT_EQ(bulk.accessAtDistance(d), single.accessAtDistance(d))
                << "cap " << c.cap << " op " << i;
        }
    }
}

TEST(LruStackSampler, LastThirtyTwoBitBlockIdIsKept)
{
    // The bulk fill skips the ids it would drop at once, so this
    // reaches the top of the id space cheaply.
    LruStackSampler s(8);
    const std::uint64_t last = (std::uint64_t{1} << 32) - 1;
    s.accessNewBlocks(last);
    EXPECT_EQ(s.peekAtDistance(1), last - 1);
    EXPECT_EQ(s.accessNew(), last);
    EXPECT_EQ(s.accessAtDistance(2), last - 1);
    EXPECT_EQ(s.accessAtDistance(2), last);
    EXPECT_EQ(s.totalBlocks(), last + 1);
    EXPECT_EXIT(s.accessNew(), ::testing::ExitedWithCode(1),
                "block id 4294967296 overflows the 32-bit slots");
}

TEST(LruStackSampler, BulkFillPastThirtyTwoBitIdsIsFatal)
{
    LruStackSampler s(8);
    EXPECT_EXIT(s.accessNewBlocks((std::uint64_t{1} << 32) + 5),
                ::testing::ExitedWithCode(1),
                "block id 4294967300 overflows the 32-bit slots");
}

} // namespace
} // namespace cmpqos
