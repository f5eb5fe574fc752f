/**
 * @file
 * The Local Admission Controller (Section 5): FCFS admission with
 * earliest-fit timeslot reservation for Strict/Elastic jobs, spare-
 * resource acceptance for Opportunistic jobs, and latest-fit
 * reservation placement for automatically downgraded Strict jobs
 * (Section 3.4: the reserved timeslot is placed as far away as
 * possible to maximise the chance the job completes before it).
 *
 * The LAC is a user-level program in the paper; its run-time cost is
 * modelled here by counting admission-test work (reservation scans)
 * and charging a per-operation cycle cost, which the Section 7.5
 * bench reports as occupancy relative to workload wall-clock time.
 */

#ifndef CMPQOS_QOS_ADMISSION_HH
#define CMPQOS_QOS_ADMISSION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "qos/job.hh"
#include "qos/resource.hh"
#include "telemetry/recorder.hh"

namespace cmpqos
{

/** LAC configuration. */
struct AdmissionConfig
{
    /** Total node capacity (4 cores, 16 L2 ways in the paper; 100%
     *  of off-chip bandwidth for the extension dimension). */
    ResourceVector capacity{4, 16, 100};
    /** Apply automatic mode downgrade to eligible Strict jobs. */
    bool autoDowngrade = false;
    /** Cost model: fixed cycles charged per admission test (~0.25us
     *  of user-level work at 2GHz). */
    Cycle costPerSubmission = 500;
};

/** Outcome of one admission test. */
struct AdmissionDecision
{
    bool accepted = false;
    bool autoDowngraded = false;
    Cycle slotStart = 0;
    Cycle slotEnd = 0;
    std::string reason;
};

/**
 * Per-CMP admission controller.
 */
class LocalAdmissionController
{
  public:
    explicit LocalAdmissionController(
        const AdmissionConfig &config = AdmissionConfig());

    const AdmissionConfig &config() const { return config_; }

    /**
     * FCFS admission test for @p job arriving at @p now. On
     * acceptance the job's timeslot fields are filled in and (for
     * reserving modes) resources are reserved.
     */
    AdmissionDecision submit(Job &job, Cycle now);

    /**
     * Probe only: would @p job be accepted at @p now? No state is
     * modified (QosFramework::probeJob's test, which the cluster
     * engine's global admission runs on every node).
     */
    AdmissionDecision probe(const Job &job, Cycle now) const;

    /** Early completion: reclaim the rest of the job's timeslot. */
    void releaseEarly(const Job &job, Cycle now);

    /** Remove a job's reservations (rejection cleanup / cancel). */
    void cancel(const Job &job);

    ResourceTimeline &timeline() { return timeline_; }
    const ResourceTimeline &timeline() const { return timeline_; }

    std::uint64_t acceptedCount() const { return accepted_; }
    std::uint64_t rejectedCount() const { return rejected_; }
    std::uint64_t submissionCount() const { return accepted_ + rejected_; }

    /** Modelled LAC occupancy in cycles (Section 7.5). */
    Cycle overheadCycles() const { return overheadCycles_; }

    /**
     * Telemetry: emit JobAdmitted / JobRejected from submit().
     * Probes stay silent — they are side-effect free by contract.
     */
    void setTrace(TraceRecorder *trace) { trace_ = trace; }

  private:
    /** Shared admission logic; mutates nothing. */
    AdmissionDecision decide(const Job &job, Cycle now) const;

    AdmissionConfig config_;
    ResourceTimeline timeline_;
    TraceRecorder *trace_ = nullptr;
    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
    Cycle overheadCycles_ = 0;
};

} // namespace cmpqos

#endif // CMPQOS_QOS_ADMISSION_HH
