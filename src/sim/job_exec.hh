/**
 * @file
 * Runtime state of one executing job: its synthetic access generator
 * (alive only while the job runs), progress, per-job cache/cycle
 * statistics, and the optional duplicate tag array attached while the
 * job runs as Elastic(X).
 */

#ifndef CMPQOS_SIM_JOB_EXEC_HH
#define CMPQOS_SIM_JOB_EXEC_HH

#include <memory>
#include <optional>

#include "cache/duplicate_tags.hh"
#include "common/types.hh"
#include "cpu/cpi_model.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

namespace cmpqos
{

/**
 * Execution-side representation of a job (the QoS-side Job object in
 * src/qos owns policy state; this owns microarchitectural state).
 */
class JobExecution
{
  public:
    JobExecution(JobId id, const BenchmarkProfile &profile,
                 InstCount length, std::uint64_t seed,
                 TraceMode mode = TraceMode::L2Stream);

    JobId id() const { return id_; }
    const BenchmarkProfile &profile() const { return *profile_; }

    /**
     * The job's access stream, built on the first call (the job's
     * first advance, or a harness pre-filling a cache with its
     * standing set) from the seed drawn at admission, so a job
     * waiting for its slot holds no reuse stack. Fatal after retire().
     */
    AccessGenerator &generator();

    /**
     * Destroy the access stream: the job completed or left its node.
     * The statistics below stay readable.
     */
    void retire();
    bool retired() const { return retired_; }

    InstCount length() const { return length_; }
    InstCount executed() const { return executed_; }
    InstCount
    remaining() const
    {
        return executed_ >= length_ ? 0 : length_ - executed_;
    }
    bool complete() const { return executed_ >= length_; }

    void noteExecuted(InstCount n) { executed_ += n; }

    /** Per-job L2 activity accumulated over its whole run. */
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t writebacks = 0;
    /** Cycles this job spent executing (excludes queueing). */
    double cyclesRun = 0.0;

    /** First cycle the job executed on a core. */
    double startCycle = -1.0;
    /** Cycle the job completed. */
    double endCycle = -1.0;
    bool started() const { return startCycle >= 0.0; }

    double
    wallClock() const
    {
        return (endCycle >= 0.0 && startCycle >= 0.0)
                   ? endCycle - startCycle
                   : 0.0;
    }

    double
    missRate() const
    {
        return l2Accesses == 0
                   ? 0.0
                   : static_cast<double>(l2Misses) /
                         static_cast<double>(l2Accesses);
    }

    double
    cpi() const
    {
        return executed_ == 0 ? 0.0
                              : cyclesRun /
                                    static_cast<double>(executed_);
    }

    /** Additive-model constants for this job's benchmark. */
    CpiParams cpiParams(double t2) const;

    /** Elastic jobs get memory-priority requests (footnote 2). */
    bool memPriority = false;

    /** Attach shadow tags while the job runs as Elastic(X). */
    void
    attachDuplicateTags(std::unique_ptr<DuplicateTagArray> tags)
    {
        dupTags_ = std::move(tags);
    }
    DuplicateTagArray *duplicateTags() { return dupTags_.get(); }
    void detachDuplicateTags() { dupTags_.reset(); }

  private:
    JobId id_;
    const BenchmarkProfile *profile_;
    InstCount length_;
    InstCount executed_ = 0;
    std::uint64_t seed_;
    TraceMode mode_;
    std::optional<AccessGenerator> generator_;
    bool retired_ = false;
    std::unique_ptr<DuplicateTagArray> dupTags_;
};

} // namespace cmpqos

#endif // CMPQOS_SIM_JOB_EXEC_HH
