/**
 * @file
 * Set-sampled duplicate tag array (Section 4.3).
 *
 * While resource stealing shrinks an Elastic(X) job's partition, a
 * duplicate tag array tracks what the job's partition would contain
 * had stealing *not* been applied, so the hardware can compare the
 * actual (main-tag) miss count against the would-have-been
 * (duplicate-tag) miss count. To bound storage, only every Nth set
 * carries duplicate tags (set sampling, after [17, 18]); the paper
 * samples every 8th set (1/8 of sets).
 *
 * Both miss counters accumulate from activation and are *not* reset
 * at repartitioning intervals, so the bound "total misses since the
 * Elastic(X) job started must not grow by more than X%" holds over
 * the job's whole execution.
 */

#ifndef CMPQOS_CACHE_DUPLICATE_TAGS_HH
#define CMPQOS_CACHE_DUPLICATE_TAGS_HH

#include <cstdint>

#include "cache/config.hh"
#include "cache/tag_store.hh"
#include "common/types.hh"

namespace cmpqos
{

/**
 * Shadow tags for one Elastic(X) job, modelling its original
 * (pre-stealing) way allocation with plain LRU within the partition.
 */
class DuplicateTagArray
{
  public:
    /**
     * @param l2_config geometry of the shared L2 being shadowed
     * @param baseline_ways the job's reserved way count before any
     *        stealing; the shadow models a private baseline_ways-way
     *        partition
     * @param sample_period shadow every sample_period-th set
     *        (8 in the paper)
     */
    DuplicateTagArray(const CacheConfig &l2_config, unsigned baseline_ways,
                      unsigned sample_period = 8);

    /**
     * Observe one L2 access by the shadowed job.
     *
     * Updates the shadow tags if the access falls in a sampled set and
     * records both the shadow outcome and the supplied main-tag
     * outcome so the two miss counts stay comparable (same access
     * subset).
     *
     * @param addr byte address accessed
     * @param main_hit whether the access hit in the real L2
     * @return true if the access fell in a sampled set
     */
    bool observe(Addr addr, bool main_hit);

    /** Accesses that fell in sampled sets. */
    std::uint64_t sampledAccesses() const { return sampledAccesses_; }

    /** Misses the real (stolen-from) partition took on sampled sets. */
    std::uint64_t mainMisses() const { return mainMisses_; }

    /** Misses the un-stolen partition would have taken. */
    std::uint64_t shadowMisses() const { return shadowMisses_; }

    /**
     * Relative excess of real misses over would-have-been misses,
     * e.g. 0.05 = the job has taken 5% more misses than it would have
     * without stealing. Returns 0 while shadowMisses() == 0.
     */
    double missIncrease() const;

    /**
     * Whether the observed miss increase exceeds @p slack_fraction
     * (e.g. 0.05 for Elastic(5%)). The paper cancels stealing and
     * returns all stolen ways when this trips.
     */
    bool exceedsSlack(double slack_fraction) const;

    unsigned baselineWays() const { return baselineWays_; }
    unsigned samplePeriod() const { return samplePeriod_; }

    /** Number of shadowed sets. */
    std::uint64_t sampledSets() const { return sampledSets_; }

    /** Clear tags and counters (job restart). */
    void reset();

  private:
    bool isSampled(std::uint64_t set) const
    {
        return set % samplePeriod_ == 0;
    }

    CacheConfig l2Config_;
    unsigned baselineWays_;
    unsigned samplePeriod_;
    std::uint64_t sampledSets_;
    unsigned blockShift_;
    std::uint64_t setMask_;

    TagStore shadow_;

    std::uint64_t sampledAccesses_ = 0;
    std::uint64_t mainMisses_ = 0;
    std::uint64_t shadowMisses_ = 0;
};

} // namespace cmpqos

#endif // CMPQOS_CACHE_DUPLICATE_TAGS_HH
