#include "cache.hh"

#include "common/units.hh"

namespace cmpqos
{

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : config_(config.validate()),
      blockShift_(floorLog2(config_.blockSize)),
      setMask_(config_.numSets() - 1),
      tags_(config_.numSets(), config_.assoc, 1)
{
}

AccessResult
SetAssocCache::access(Addr addr, bool is_write)
{
    ++accesses_;
    const Addr block_addr = addr >> blockShift_;
    const std::uint64_t set = block_addr & setMask_;

    AccessResult result;
    const int way = tags_.find(set, block_addr);
    if (way >= 0) {
        result.hit = true;
        tags_.touch(set, static_cast<unsigned>(way), is_write);
        return result;
    }

    ++misses_;
    tags_.fill(set, tags_.lruVictim(set), block_addr, 0, is_write, result);
    writebacks_ += result.writeback;
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr block_addr = addr >> blockShift_;
    return tags_.find(block_addr & setMask_, block_addr) >= 0;
}

void
SetAssocCache::invalidate(Addr addr)
{
    const Addr block_addr = addr >> blockShift_;
    const std::uint64_t set = block_addr & setMask_;
    const int way = tags_.find(set, block_addr);
    if (way >= 0)
        tags_.invalidate(set, static_cast<unsigned>(way));
}

double
SetAssocCache::missRate() const
{
    return accesses_ == 0
               ? 0.0
               : static_cast<double>(misses_) /
                     static_cast<double>(accesses_);
}

std::uint64_t
SetAssocCache::validBlocks() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s <= setMask_; ++s)
        n += tags_.occupancy(s);
    return n;
}

} // namespace cmpqos
