/**
 * @file
 * A plain set-associative cache with LRU replacement and write-back /
 * write-allocate policy. Used for the private L1 instruction and data
 * caches (Section 6).
 */

#ifndef CMPQOS_CACHE_CACHE_HH
#define CMPQOS_CACHE_CACHE_HH

#include <cstdint>

#include "cache/config.hh"
#include "cache/tag_store.hh"
#include "common/types.hh"

namespace cmpqos
{

/**
 * Functional set-associative cache. Timing is not modelled here; the
 * CPU model charges latencies based on hit/miss outcomes.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Access one block. On a miss the block is allocated
     * (write-allocate) and a victim may be evicted.
     *
     * @param addr byte address of the access
     * @param is_write true for stores
     * @return hit/miss and eviction information
     */
    AccessResult access(Addr addr, bool is_write);

    /** Probe without side effects. @return true if the block is present. */
    bool contains(Addr addr) const;

    /** Invalidate the block holding @p addr if present. */
    void invalidate(Addr addr);

    /** Invalidate the entire cache and reset recency state. */
    void flush() { tags_.clear(); }

    const CacheConfig &config() const { return config_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t hits() const { return accesses_ - misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double missRate() const;

    /** Reset statistics without touching cache contents. */
    void resetStats() { accesses_ = misses_ = writebacks_ = 0; }

    /** Number of currently valid blocks (O(sets); for tests). */
    std::uint64_t validBlocks() const;

  private:
    CacheConfig config_;
    unsigned blockShift_;
    std::uint64_t setMask_;
    TagStore tags_;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace cmpqos

#endif // CMPQOS_CACHE_CACHE_HH
