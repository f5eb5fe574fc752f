#include "duplicate_tags.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace cmpqos
{

namespace
{

/** The shadow geometry, checked before anything is sized from it. */
std::uint64_t
sampledSetsOf(const CacheConfig &l2, unsigned ways, unsigned period)
{
    l2.validate();
    cmpqos_assert(ways > 0 && ways <= l2.assoc,
                  "baseline ways %u out of range", ways);
    cmpqos_assert(period > 0, "sample period must be positive");
    return (l2.numSets() + period - 1) / period;
}

} // namespace

DuplicateTagArray::DuplicateTagArray(const CacheConfig &l2_config,
                                     unsigned baseline_ways,
                                     unsigned sample_period)
    : l2Config_(l2_config), baselineWays_(baseline_ways),
      samplePeriod_(sample_period),
      sampledSets_(sampledSetsOf(l2_config, baseline_ways, sample_period)),
      blockShift_(floorLog2(l2Config_.blockSize)),
      setMask_(l2Config_.numSets() - 1),
      shadow_(sampledSets_, baselineWays_, 1)
{
}

bool
DuplicateTagArray::observe(Addr addr, bool main_hit)
{
    const Addr block_addr = addr >> blockShift_;
    const std::uint64_t set = block_addr & setMask_;
    if (!isSampled(set))
        return false;

    ++sampledAccesses_;
    if (!main_hit)
        ++mainMisses_;

    // Plain LRU within the shadow partition.
    const std::uint64_t shadow_set = set / samplePeriod_;
    const int way = shadow_.find(shadow_set, block_addr);
    if (way >= 0) {
        shadow_.touch(shadow_set, static_cast<unsigned>(way), false);
        return true;
    }
    ++shadowMisses_;
    AccessResult displaced;
    shadow_.fill(shadow_set, shadow_.lruVictim(shadow_set), block_addr, 0,
                 false, displaced);
    return true;
}

double
DuplicateTagArray::missIncrease() const
{
    if (shadowMisses_ == 0)
        return 0.0;
    const double main = static_cast<double>(mainMisses_);
    const double shadow = static_cast<double>(shadowMisses_);
    return (main - shadow) / shadow;
}

bool
DuplicateTagArray::exceedsSlack(double slack_fraction) const
{
    return missIncrease() >= slack_fraction;
}

void
DuplicateTagArray::reset()
{
    shadow_.clear();
    sampledAccesses_ = 0;
    mainMisses_ = 0;
    shadowMisses_ = 0;
}

} // namespace cmpqos
