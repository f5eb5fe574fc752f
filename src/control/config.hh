/**
 * @file
 * Configuration of the per-node feedback controller (DESIGN.md §14).
 *
 * A ControllerConfig travels as one canonical comma-separated
 * `key=value` spec string — through EpochConfig directives, the
 * `cluster_driver --control` flag, and the federation `FedInit`
 * handshake — so every endpoint (single-process engine, shard
 * worker, replayed journal) reconstructs bit-identical parameters
 * from the same bytes. Commas instead of spaces keep the spec a
 * single shell word in journal replay commands.
 */

#ifndef CMPQOS_CONTROL_CONFIG_HH
#define CMPQOS_CONTROL_CONFIG_HH

#include <string>
#include <string_view>

#include "common/types.hh"

namespace cmpqos
{

/** Tuning of the quantum-barrier feedback controller. */
struct ControllerConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /**
     * Hysteresis band on measured slack (fraction of budget). Below
     * slackLow the controller boosts the job; above slackHigh it
     * economizes; in between it holds, which is what damps
     * oscillation between quanta.
     */
    double slackLow = 0.05;
    double slackHigh = 0.40;

    /**
     * Dynamic SLO: a reserved job's setpoint is its measured
     * standalone CPI times (1 + sloSlowdown) — the measurement-driven
     * replacement for hand-picked Elastic(X) budgets.
     */
    bool dynamicSlo = true;
    double sloSlowdown = 0.10;

    /** Bandwidth-share actuation step, percent of peak per retune. */
    unsigned bandwidthStep = 5;

    /**
     * Minimum instructions a job must retire in a quantum before its
     * window CPI is trusted; smaller windows are measurement noise.
     */
    InstCount minWindowInstructions = 50'000;

    /**
     * Energy model: E = staticPower * cycles * cores
     *                 + dynCoeff * sum(f^2 * scalable_cycles).
     * Units are abstract energy-per-cycle; only ratios matter to the
     * controller and the benches.
     */
    double staticPower = 0.5;
    double dynCoeff = 1.0;

    /**
     * Per-node modelled power cap in energy-per-cycle (0 = uncapped).
     * When a quantum's average power exceeds the cap, the controller
     * down-clocks the reserved job with the most slack.
     */
    double powerCap = 0.0;
};

/**
 * Canonical spec string of @p config: comma-separated `key=value`
 * with every key present, or "" when the controller is disabled.
 * format/parse round-trip bit-exactly (doubles use %.17g).
 */
std::string formatControllerSpec(const ControllerConfig &config);

/**
 * Parse a spec produced by formatControllerSpec (or hand-written
 * subsets; unset keys keep their defaults). An empty spec yields a
 * disabled default config. Values follow readValue (common/json.hh):
 * on and dynamic_slo are on/off values, every double is finite,
 * slo_slowdown, p_static, dyn_coeff and power_cap are at least 0, and
 * bw_step is in [0, 100]. @return false with @p error set on a
 * malformed key or value, leaving @p out untouched.
 */
bool parseControllerSpec(std::string_view spec, ControllerConfig &out,
                         std::string &error);

} // namespace cmpqos

#endif // CMPQOS_CONTROL_CONFIG_HH
