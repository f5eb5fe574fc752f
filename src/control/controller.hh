/**
 * @file
 * The per-node quantum-barrier feedback controller (DESIGN.md §14) —
 * ROADMAP item 4's dynamic layer over the paper's static-reservation
 * framework.
 *
 * Measurement path: at every quantum barrier the controller reads
 * each running reserved job's window CPI (instructions and cycles
 * retired since the previous barrier — all deterministic quantum
 * stats) and converts it into *slack* against the tighter of two
 * setpoints: the job's deadline budget ((td - now) / remaining
 * instructions) and its dynamic SLO (measured standalone CPI times
 * 1 + sloSlowdown, after Qiu et al. — a setpoint derived from
 * measurement instead of a hand-picked Elastic(X) constant).
 *
 * Actuation path: one knob move per job per quantum, inside a
 * hysteresis band. A starved job (slack < slackLow) is boosted —
 * frequency restored toward nominal first, then a cache way granted
 * above its floor, then a bandwidth-share step. A slack-rich job
 * (slack > slackHigh) is economized in the reverse order — bandwidth
 * trimmed to its floor, ways returned, then the core down-clocked
 * (Nejat et al.: trading ways and frequency jointly under a QoS
 * floor saves the energy static reservations waste).
 *
 * Safety: floors are never violated — a job's admitted ways and
 * bandwidth share are the actuation lower bounds, so the fault
 * oracle's Strict-floor and way-conservation invariants hold by
 * construction. Way grants additionally require headroom over the
 * sum of live reserved targets and are all reverted the moment any
 * admitted job is waiting to start, so the scheduler's reserved-start
 * headroom check never sees controller-inflated targets.
 *
 * Determinism: decisions are pure functions of (config, per-job
 * quantum stats, virtual time); state lives in ordered containers
 * keyed by job id. Both engines run the step at the same point of
 * the barrier protocol, so the thread x shard byte-equality matrix
 * holds with the controller on.
 */

#ifndef CMPQOS_CONTROL_CONTROLLER_HH
#define CMPQOS_CONTROL_CONTROLLER_HH

#include <cstdint>
#include <map>

#include "common/types.hh"
#include "control/config.hh"
#include "qos/framework.hh"
#include "telemetry/recorder.hh"

namespace cmpqos
{

/** Counters of controller activity (fingerprinted when enabled). */
struct ControlTallies
{
    /** Total knob moves (sum of the six below). */
    std::uint64_t retunes = 0;
    std::uint64_t freqBoosts = 0;
    std::uint64_t freqDrops = 0;
    std::uint64_t wayGrants = 0;
    std::uint64_t wayReturns = 0;
    std::uint64_t bwGrants = 0;
    std::uint64_t bwReturns = 0;

    void accumulate(const ControlTallies &o);
};

/** Every controller tally, in the order the fingerprint's control=
 *  segment, the JSONL controller object and the shard link list
 *  them. */
inline constexpr TallyField<ControlTallies> controlTallyFields[] = {
    {"retunes", &ControlTallies::retunes},
    {"freq_boosts", &ControlTallies::freqBoosts},
    {"freq_drops", &ControlTallies::freqDrops},
    {"way_grants", &ControlTallies::wayGrants},
    {"way_returns", &ControlTallies::wayReturns},
    {"bw_grants", &ControlTallies::bwGrants},
    {"bw_returns", &ControlTallies::bwReturns},
};

inline void
ControlTallies::accumulate(const ControlTallies &o)
{
    for (const auto &f : controlTallyFields)
        this->*f.member += o.*f.member;
}

template <typename V>
void
visitFields(ControlTallies &t, V &v)
{
    for (const auto &f : controlTallyFields)
        v.u64(f.name, t.*f.member);
}

/**
 * Modelled energy after @p virtualCycles with @p dynWork accumulated
 * (sum of f^2 * scalable-cycles across cores; cpu/core.hh):
 * E = staticPower * cycles * cores + dynCoeff * dynWork.
 */
double modelledEnergy(const ControllerConfig &config,
                      double virtualCycles, int numCores,
                      double dynWork);

/**
 * One node's feedback controller. Owned by the NodeWorker and
 * stepped at every quantum barrier before the node advances;
 * recreated (state reset) when a node restarts after a crash.
 */
class NodeController
{
  public:
    explicit NodeController(const ControllerConfig &config);

    const ControllerConfig &config() const { return config_; }

    /**
     * Run one barrier step over @p fw at virtual time @p now.
     * Emits ControllerRetune / FrequencyChanged events on @p trace
     * (nullable) for every actuation.
     */
    void step(QosFramework &fw, Cycle now, TraceRecorder *trace);

    const ControlTallies &tallies() const { return tallies_; }

  private:
    /** Per-job measurement window across barriers. */
    struct JobWindow
    {
        InstCount lastExecuted = 0;
        double lastCycles = 0.0;
        /** Ways granted above the admitted floor. */
        unsigned grantedWays = 0;
        /** Bandwidth percent granted above the admitted floor. */
        unsigned grantedBw = 0;
    };

    /** Measured state of one active job within a step. */
    struct Measured
    {
        Job *job = nullptr;
        double slack = 0.0;
        bool valid = false;
    };

    double measureSlack(Job *job, QosFramework &fw, Cycle now,
                        JobWindow &w);
    void boost(Job *job, QosFramework &fw, Cycle now, JobWindow &w,
               double slack, bool waitingReserved,
               TraceRecorder *trace);
    void economize(Job *job, QosFramework &fw, Cycle now, JobWindow &w,
                   double slack, TraceRecorder *trace);
    void revertWays(Job *job, QosFramework &fw, Cycle now, JobWindow &w,
                    TraceRecorder *trace);
    void setCoreFrequency(QosFramework &fw, CoreId core,
                          std::uint32_t step, JobId job, Cycle now,
                          TraceRecorder *trace);
    void emitRetune(TraceRecorder *trace, Cycle now, JobId job,
                    const char *knob, std::uint64_t oldValue,
                    std::uint64_t newValue, double slack);
    /** Headroom for one more reserved way across the whole L2. */
    bool wayHeadroom(const QosFramework &fw) const;

    ControllerConfig config_;
    /** Ordered by job id so every pass is deterministic. */
    std::map<JobId, JobWindow> windows_;
    ControlTallies tallies_;
    /** Power-cap window state. */
    Cycle lastNow_ = 0;
    double lastEnergy_ = 0.0;
};

} // namespace cmpqos

#endif // CMPQOS_CONTROL_CONTROLLER_HH
