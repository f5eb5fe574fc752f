#include "bandwidth.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpqos
{

BandwidthRegulator::BandwidthRegulator(const MemoryConfig &config,
                                       int num_cores)
    : config_(config), numCores_(num_cores),
      shares_(static_cast<std::size_t>(num_cores), 0),
      demand_(static_cast<std::size_t>(num_cores), 0.0)
{
    cmpqos_assert(num_cores > 0, "need at least one core");
}

void
BandwidthRegulator::checkCore(CoreId core) const
{
    cmpqos_assert(core >= 0 && core < numCores_, "core %d out of range",
                  core);
}

void
BandwidthRegulator::setShare(CoreId core, unsigned percent)
{
    checkCore(core);
    unsigned others = 0;
    for (int c = 0; c < numCores_; ++c)
        if (c != core)
            others += shares_[static_cast<std::size_t>(c)];
    if (others + percent > 100)
        cmpqos_fatal("bandwidth shares (%u + %u) exceed 100%%", others,
                     percent);
    shares_[static_cast<std::size_t>(core)] = percent;
}

unsigned
BandwidthRegulator::share(CoreId core) const
{
    checkCore(core);
    return shares_[static_cast<std::size_t>(core)];
}

unsigned
BandwidthRegulator::reservedPercent() const
{
    unsigned total = 0;
    for (unsigned s : shares_)
        total += s;
    return total;
}

void
BandwidthRegulator::noteWindow(CoreId core, std::uint64_t bytes,
                               Cycle cycles)
{
    checkCore(core);
    if (cycles == 0)
        return;
    const double rate =
        static_cast<double>(bytes) / static_cast<double>(cycles);
    auto &d = demand_[static_cast<std::size_t>(core)];
    d = memEwmaAlpha * rate + (1.0 - memEwmaAlpha) * d;
}

double
BandwidthRegulator::poolDemand() const
{
    // Concurrent traffic sums across cores: the pool's demand is the
    // sum of its members' per-core rate estimates.
    double total = 0.0;
    for (int c = 0; c < numCores_; ++c)
        if (shares_[static_cast<std::size_t>(c)] == 0)
            total += demand_[static_cast<std::size_t>(c)];
    return total;
}

double
BandwidthRegulator::entitledBytesPerCycle(CoreId core) const
{
    const unsigned s = shares_[static_cast<std::size_t>(core)];
    const unsigned effective = s > 0 ? s : poolPercent();
    // A zero-entitlement core (pool exhausted by reservations) still
    // trickles: floor at 1%.
    return memPeakBytesPerCycle *
           static_cast<double>(std::max(effective, 1u)) / 100.0;
}

double
BandwidthRegulator::utilization(CoreId core) const
{
    checkCore(core);
    const unsigned s = shares_[static_cast<std::size_t>(core)];
    const double demand =
        s > 0 ? demand_[static_cast<std::size_t>(core)] : poolDemand();
    return std::min(1.0, demand / entitledBytesPerCycle(core));
}

double
BandwidthRegulator::missPenalty(CoreId core, bool priority) const
{
    return queueingMissPenalty(config_, utilization(core), priority);
}

bool
BandwidthRegulator::saturated(CoreId core) const
{
    return utilization(core) >= memSaturationThreshold;
}

void
BandwidthRegulator::reset()
{
    for (auto &d : demand_)
        d = 0.0;
}

} // namespace cmpqos
