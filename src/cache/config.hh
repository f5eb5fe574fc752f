/**
 * @file
 * Geometry and latency configuration for caches.
 *
 * Defaults follow Section 6 of the paper: 32KB / 4-way / 64B / 2-cycle
 * private L1s and a 2MB / 16-way / 64B / 10-cycle shared L2.
 */

#ifndef CMPQOS_CACHE_CONFIG_HH
#define CMPQOS_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "common/units.hh"

namespace cmpqos
{

/**
 * Static cache geometry. All fields must be powers of two except
 * latency, and size must be divisible by assoc * blockSize.
 */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * kib;
    unsigned assoc = 4;
    unsigned blockSize = 64;
    Cycle hitLatency = 2;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * blockSize);
    }

    /** Total number of blocks in the cache. */
    std::uint64_t
    numBlocks() const
    {
        return sizeBytes / blockSize;
    }

    /** Capacity of a single way in bytes. */
    std::uint64_t
    wayBytes() const
    {
        return sizeBytes / assoc;
    }

    /**
     * Validate geometry; calls fatal() on bad configuration, including
     * an associativity wider than a way mask (maxWays).
     * @return this configuration, so constructors can validate inline
     */
    const CacheConfig &validate() const;

    /** The paper's private L1 configuration. */
    static CacheConfig l1Default();

    /** The paper's shared L2 configuration. */
    static CacheConfig l2Default();
};

} // namespace cmpqos

#endif // CMPQOS_CACHE_CONFIG_HH
