#include "generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpqos
{

StackDistanceProfile
buildFullStreamProfile(const BenchmarkProfile &profile)
{
    const double l2_weight = profile.h2 / profile.memRefsPerInstr;
    cmpqos_assert(l2_weight > 0.0 && l2_weight < 1.0,
                  "h2 must be a proper fraction of memRefsPerInstr");
    std::vector<ProfileComponent> comps;
    // L1-resident reuse: short distances that a 32KB L1 captures.
    comps.push_back(
        ProfileComponent::geometric(1.0 - l2_weight, 48.0));
    for (const auto &c : profile.l2Profile.components()) {
        ProfileComponent scaled = c;
        scaled.weight =
            c.weight * l2_weight; // relative scale within the mixture
        comps.push_back(scaled);
    }
    return StackDistanceProfile(std::move(comps));
}

Addr
jobAddressBase(JobId job)
{
    cmpqos_assert(job >= 0, "job id must be non-negative");
    // 16GB per job keeps block ids disjoint for any realistic stream.
    return static_cast<Addr>(job + 1) << 34;
}

namespace
{

/**
 * Live-block cap for a job's reuse stack. A profile built only from
 * Uniform and Cold components never samples a distance beyond
 * maxFiniteDistance(), and the warm-up leaves that many blocks live
 * before the first sample, so a distance never exceeds the live count
 * and the blocks below that depth are never touched again. The top
 * blocks of an LRU stack do not depend on those below them, so
 * dropping them changes no block id. A Geometric component has an
 * unbounded tail and keeps the default cap, as does a profile deeper
 * than it.
 */
std::size_t
liveBlockCap(const StackDistanceProfile &profile)
{
    for (const auto &c : profile.components())
        if (c.kind == ProfileComponent::Kind::Geometric)
            return LruStackSampler::defaultMaxLive;
    return static_cast<std::size_t>(std::clamp<std::uint64_t>(
        profile.maxFiniteDistance(), 2, LruStackSampler::defaultMaxLive));
}

} // namespace

AccessGenerator::AccessGenerator(const BenchmarkProfile &profile,
                                 std::uint64_t seed, Addr address_base,
                                 TraceMode mode, unsigned block_size)
    : profile_(&profile), mode_(mode), addressBase_(address_base),
      blockSize_(block_size), rng_(seed),
      streamProfile_(mode == TraceMode::L2Stream
                         ? profile.l2Profile
                         : buildFullStreamProfile(profile)),
      stack_(liveBlockCap(streamProfile_)),
      rate_(mode == TraceMode::L2Stream ? profile.h2
                                        : profile.memRefsPerInstr)
{
    cmpqos_assert(rate_ > 0.0, "access rate must be positive");

    // Pre-populate the reuse stack with the benchmark's standing
    // working set. The paper skips each benchmark's initialisation
    // phase and simulates a post-init window (Section 6); starting
    // with an established working set models exactly that. Without
    // it, mid-range reuse distances would read as cold misses for an
    // artificially long start-up phase. (The *cache* still starts
    // cold — first touches miss — which is the physical warm-up the
    // wall-clock model accounts for.)
    stack_.accessNewBlocks(streamProfile_.maxFiniteDistance());
}

} // namespace cmpqos
