#include "random.hh"

#include <cmath>

#include "logging.hh"

namespace cmpqos
{

namespace
{

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::int64_t
Rng::uniformRange(std::int64_t lo, std::int64_t hi)
{
    cmpqos_assert(lo <= hi, "uniformRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::exponential(double mean)
{
    cmpqos_assert(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

std::uint64_t
Rng::geometric(double p)
{
    cmpqos_assert(p > 0.0 && p <= 1.0, "geometric p must be in (0,1]");
    if (p >= 1.0)
        return 0;
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        cmpqos_assert(w >= 0.0, "discrete weights must be non-negative");
        total += w;
    }
    return discrete(weights, total);
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace cmpqos
