#include "memory.hh"

#include <algorithm>

namespace cmpqos
{

double
queueingMissPenalty(const MemoryConfig &config, double rho, bool priority)
{
    const double base = static_cast<double>(config.accessLatency);
    if (priority)
        return base;
    // M/D/1 mean wait, clamped away from the rho -> 1 pole.
    rho = std::min(rho, 0.95);
    const double wait = base * rho / (2.0 * (1.0 - rho));
    return base + std::min(wait, base * config.maxQueueingFactor);
}

MainMemory::MainMemory(const MemoryConfig &config) : config_(config) {}

void
MainMemory::noteWindow(std::uint64_t bytes, Cycle cycles)
{
    totalBytes_ += bytes;
    if (cycles == 0)
        return;
    const double inst = std::min(
        1.0, static_cast<double>(bytes) /
                 (static_cast<double>(cycles) * memPeakBytesPerCycle));
    utilization_ =
        memEwmaAlpha * inst + (1.0 - memEwmaAlpha) * utilization_;
}

bool
MainMemory::saturated() const
{
    return utilization_ >= memSaturationThreshold;
}

double
MainMemory::missPenalty(bool priority) const
{
    return queueingMissPenalty(config_, utilization_, priority);
}

void
MainMemory::reset()
{
    utilization_ = 0.0;
    totalBytes_ = 0;
}

} // namespace cmpqos
