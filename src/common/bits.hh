/**
 * @file
 * Bit counting and selection on 64-bit words in branch-free broadword
 * (SWAR) arithmetic, so neither needs POPCNT or BMI2 from the target.
 *
 * Used by the LRU stack-distance sampler (src/workload) to find the
 * k-th occupied slot inside one 64-slot occupancy word.
 */

#ifndef CMPQOS_COMMON_BITS_HH
#define CMPQOS_COMMON_BITS_HH

#include <array>
#include <cstdint>

namespace cmpqos
{

namespace detail
{

constexpr std::uint64_t onesStep8 = 0x0101010101010101ULL;
constexpr std::uint64_t msbsStep8 = 0x8080808080808080ULL;

/** Each byte of the result holds the number of set bits in that byte. */
constexpr std::uint64_t
byteCounts(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
}

/** Entry 8 * b + r: position of the r-th (0-based) set bit of byte b. */
inline constexpr std::array<std::uint8_t, 256 * 8> selectInByte = [] {
    std::array<std::uint8_t, 256 * 8> table{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned r = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            if ((b >> bit) & 1u)
                table[8 * b + r++] = static_cast<std::uint8_t>(bit);
    }
    return table;
}();

} // namespace detail

/** Number of set bits in @p x. */
constexpr unsigned
popcount64(std::uint64_t x)
{
    return static_cast<unsigned>(
        (detail::byteCounts(x) * detail::onesStep8) >> 56);
}

/**
 * Position (0 = least significant) of the set bit of @p x that has
 * exactly @p k set bits below it. Requires k < popcount64(x).
 */
constexpr unsigned
selectBit64(std::uint64_t x, unsigned k)
{
    // Byte i of sums: set bits in bytes 0..i (at most 64, so the
    // subtraction below never borrows across bytes).
    const std::uint64_t sums = detail::byteCounts(x) * detail::onesStep8;
    // MSB of byte i is set where sums[i] <= k: the bit lies above it.
    const std::uint64_t below =
        ((k * detail::onesStep8 | detail::msbsStep8) - sums) &
        detail::msbsStep8;
    const unsigned place = static_cast<unsigned>(
        (((below >> 7) * detail::onesStep8) >> 56) * 8);
    const unsigned rank =
        k - static_cast<unsigned>(((sums << 8) >> place) & 0xff);
    return place +
           detail::selectInByte[8 * ((x >> place) & 0xff) + rank];
}

} // namespace cmpqos

#endif // CMPQOS_COMMON_BITS_HH
