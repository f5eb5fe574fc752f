/**
 * @file
 * Unit tests for the broadword popcount and in-word select.
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/random.hh"

namespace cmpqos
{
namespace
{

unsigned
naivePopcount(std::uint64_t x)
{
    unsigned n = 0;
    for (unsigned bit = 0; bit < 64; ++bit)
        n += (x >> bit) & 1u;
    return n;
}

TEST(Bits, PopcountEdges)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(~std::uint64_t{0}), 64u);
    EXPECT_EQ(popcount64(std::uint64_t{1} << 63), 1u);
    EXPECT_EQ(popcount64(0x8000000000000001ULL), 2u);
}

TEST(Bits, SelectSingleBits)
{
    for (unsigned bit = 0; bit < 64; ++bit)
        EXPECT_EQ(selectBit64(std::uint64_t{1} << bit, 0), bit);
    for (unsigned k = 0; k < 64; ++k)
        EXPECT_EQ(selectBit64(~std::uint64_t{0}, k), k);
}

TEST(Bits, SelectAndPopcountMatchNaiveOnRandomWords)
{
    Rng rng(11);
    for (int iter = 0; iter < 20'000; ++iter) {
        // Vary the density: AND or OR a few random words together.
        std::uint64_t x = rng.next();
        const auto shape = rng.uniformInt(5);
        for (std::uint64_t i = 0; i < shape; ++i)
            x = iter % 2 ? (x & rng.next()) : (x | rng.next());
        ASSERT_EQ(popcount64(x), naivePopcount(x)) << std::hex << x;
        unsigned k = 0;
        for (unsigned bit = 0; bit < 64; ++bit) {
            if ((x >> bit) & 1u) {
                ASSERT_EQ(selectBit64(x, k), bit)
                    << std::hex << x << std::dec << " k=" << k;
                ++k;
            }
        }
    }
}

} // namespace
} // namespace cmpqos
