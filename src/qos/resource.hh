/**
 * @file
 * Resource vectors and the reservation timeline used by the Local
 * Admission Controller (Section 5, after the basic resource
 * allocation model of [21]): each accepted Strict/Elastic job holds a
 * reservation — a resource vector over a timeslot — and availability
 * at any instant is capacity minus the sum of overlapping
 * reservations.
 */

#ifndef CMPQOS_QOS_RESOURCE_HH
#define CMPQOS_QOS_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace cmpqos
{

/**
 * A vector of (convertible) platform resources: processor cores,
 * shared-cache ways, and (extension — the paper's future-work RUM
 * dimension) a guaranteed off-chip bandwidth share in percent of
 * peak. Extending with more RUM dimensions (memory size, disk) means
 * adding fields here.
 */
struct ResourceVector
{
    unsigned cores = 0;
    unsigned ways = 0;
    /** Off-chip bandwidth share, percent of peak (0 = none). */
    unsigned bandwidth = 0;

    bool
    fitsWithin(const ResourceVector &avail) const
    {
        return cores <= avail.cores && ways <= avail.ways &&
               bandwidth <= avail.bandwidth;
    }

    ResourceVector
    operator+(const ResourceVector &o) const
    {
        return {cores + o.cores, ways + o.ways,
                bandwidth + o.bandwidth};
    }

    /** Saturating subtraction (availability never goes negative). */
    ResourceVector
    minus(const ResourceVector &o) const
    {
        return {cores >= o.cores ? cores - o.cores : 0,
                ways >= o.ways ? ways - o.ways : 0,
                bandwidth >= o.bandwidth ? bandwidth - o.bandwidth : 0};
    }

    bool
    operator==(const ResourceVector &o) const
    {
        return cores == o.cores && ways == o.ways &&
               bandwidth == o.bandwidth;
    }
};

/** One job's reserved timeslot. */
struct Reservation
{
    JobId job = invalidJob;
    Cycle start = 0;
    Cycle end = 0;
    ResourceVector resources;

    bool
    covers(Cycle t) const
    {
        return t >= start && t < end;
    }

    bool
    overlaps(Cycle s, Cycle e) const
    {
        return start < e && s < end;
    }
};

/**
 * The LAC's list of reservations over time, with earliest-fit and
 * latest-fit slot search.
 */
class ResourceTimeline
{
  public:
    explicit ResourceTimeline(ResourceVector capacity);

    const ResourceVector &capacity() const { return capacity_; }

    /** Resources free at instant @p t. */
    ResourceVector availableAt(Cycle t) const;

    /** Resources committed at instant @p t. */
    ResourceVector reservedAt(Cycle t) const;

    /** Whether @p req fits at every instant of [start, end). */
    bool fitsThroughout(Cycle start, Cycle end,
                        const ResourceVector &req) const;

    /**
     * Earliest start s in [not_before, latest_start] such that @p req
     * fits throughout [s, s + duration). maxCycle if none.
     */
    Cycle findEarliestStart(const ResourceVector &req, Cycle duration,
                            Cycle not_before, Cycle latest_start) const;

    /**
     * Latest such start (used to place automatic-downgrade
     * reservations as far away as possible, Section 3.4).
     * maxCycle if none.
     */
    Cycle findLatestStart(const ResourceVector &req, Cycle duration,
                          Cycle not_before, Cycle latest_start) const;

    /** Commit a reservation (caller must have checked it fits). */
    void reserve(JobId job, Cycle start, Cycle end,
                 const ResourceVector &req);

    /**
     * Early completion: truncate @p job's reservations at @p at so
     * the remainder of the timeslot becomes available to new jobs.
     */
    void releaseFrom(JobId job, Cycle at);

    /** Remove @p job's reservations entirely. */
    void cancel(JobId job);

    /** Drop reservations that ended before @p t (bookkeeping). */
    void pruneBefore(Cycle t);

    const std::vector<Reservation> &reservations() const
    {
        return reservations_;
    }

  private:
    ResourceVector capacity_;
    std::vector<Reservation> reservations_;
};

} // namespace cmpqos

#endif // CMPQOS_QOS_RESOURCE_HH
