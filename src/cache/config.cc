#include "config.hh"

#include "cache/tag_store.hh"
#include "common/logging.hh"

namespace cmpqos
{

const CacheConfig &
CacheConfig::validate() const
{
    if (!isPowerOfTwo(blockSize))
        cmpqos_fatal("%s: block size %u not a power of two", name.c_str(),
                     blockSize);
    if (assoc == 0)
        cmpqos_fatal("%s: associativity must be positive", name.c_str());
    if (assoc > maxWays)
        cmpqos_fatal("%s: associativity %u exceeds the %u-way limit",
                     name.c_str(), assoc, maxWays);
    if (sizeBytes % (static_cast<std::uint64_t>(assoc) * blockSize) != 0)
        cmpqos_fatal("%s: size %llu not divisible by assoc*blockSize",
                     name.c_str(),
                     static_cast<unsigned long long>(sizeBytes));
    if (!isPowerOfTwo(numSets()))
        cmpqos_fatal("%s: number of sets %llu not a power of two",
                     name.c_str(),
                     static_cast<unsigned long long>(numSets()));
    return *this;
}

CacheConfig
CacheConfig::l1Default()
{
    CacheConfig c;
    c.name = "L1";
    c.sizeBytes = 32 * kib;
    c.assoc = 4;
    c.blockSize = 64;
    c.hitLatency = 2;
    return c;
}

CacheConfig
CacheConfig::l2Default()
{
    CacheConfig c;
    c.name = "L2";
    c.sizeBytes = 2 * mib;
    c.assoc = 16;
    c.blockSize = 64;
    c.hitLatency = 10;
    return c;
}

} // namespace cmpqos
