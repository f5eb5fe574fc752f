/**
 * @file
 * One epoch's worth of daemon configuration, and its one key list:
 * the key=value directives of live reconfig (the Reconfig message)
 * and the journal header (`# config:` line), the `--KEY` flags of
 * qosd and cluster_driver, and the header's `# replay:` line are all
 * read and written by walking the same ordered keys.
 *
 * An epoch is the daemon's unit of determinism: every submission
 * accepted between two drains executes under one immutable
 * EpochConfig, and the journal header records it, so the epoch can be
 * replayed bit-identically by `cluster_driver --trace <journal>` with
 * the flags in the header's `# replay:` line (or programmatically via
 * epochClusterConfig / epochMix).
 */

#ifndef CMPQOS_SERVICE_EPOCH_CONFIG_HH
#define CMPQOS_SERVICE_EPOCH_CONFIG_HH

#include <string>
#include <string_view>

#include "cluster/engine.hh"
#include "control/config.hh"

namespace cmpqos
{

/** Everything the engine behind one daemon epoch is built from. */
struct EpochConfig
{
    int nodes = 8;
    /** Placement quantum, cycles. */
    Cycle quantum = 2'000'000;
    std::uint64_t seed = 1;
    GacPolicy policy = GacPolicy::LeastLoaded;
    bool negotiate = true;
    /** Silver tier's Elastic(X) budget: the fraction of its reserved
     *  L2 ways an elastic job lets the stealing engine take. */
    double elasticX = 0.05;
    /** Gap between auto-assigned arrival times, cycles. */
    Cycle arrivalGap = 250'000;
    /** Instructions per job when a submission does not specify. */
    InstCount instructions = 2'000'000;
    /** Run the invariant oracle at every quantum barrier. */
    bool checkInvariants = true;
    /** Per-node feedback controller (src/control); off by default. */
    ControllerConfig control;
};

/**
 * Apply one `key=value` directive to @p c. The keys and their legal
 * values are the key list in epoch_config.cc (DESIGN.md §11). The
 * control value is a comma-separated controller spec
 * (parseControllerSpec) — one shell word, so it survives the
 * whitespace-split directive grammar. On failure @p err names the
 * key and @p c is unchanged.
 */
bool applyEpochDirective(EpochConfig &c, std::string_view key,
                         std::string_view value, std::string &err);

/**
 * Apply a whitespace-separated run of `key=value` directives.
 * All-or-nothing: on any failure @p c is unchanged.
 */
bool applyEpochDirectives(EpochConfig &c, std::string_view directives,
                          std::string &err);

/** Render @p c as the canonical directive run (journal `# config:`
 *  line payload; parseable by applyEpochDirectives). */
std::string formatEpochConfig(const EpochConfig &c);

/** The arrival mix an epoch runs under: ArrivalMix::defaults() with
 *  the Silver tier's elastic budget and the default instruction count
 *  swapped in. */
ArrivalMix epochMix(const EpochConfig &c);

/** Build the engine configuration for one epoch. @p threads is the
 *  worker-thread count (0 = hardware) — deliberately not part of
 *  EpochConfig, since the fingerprint must not depend on it. */
ClusterConfig epochClusterConfig(const EpochConfig &c, unsigned threads);

/** The epoch a cluster_driver run starts from before its flags:
 *  EpochConfig's defaults with the invariant oracle off. */
EpochConfig driverEpochDefaults();

/**
 * The cluster_driver invocation that replays a journal written under
 * @p c (journal path substituted for @p journal_path): `--KEY VALUE`
 * for each key but arrival-gap, which a replay never uses, and
 * `--KEY`/`--no-KEY` for an on/off key only where it differs from
 * driverEpochDefaults. A disabled controller is left out.
 */
std::string replayCommand(const EpochConfig &c,
                          const std::string &journal_path);

/**
 * If argv[@p i] is an epoch key's flag, read it into @p c and return
 * true: `--KEY VALUE` (advancing @p i past the value), or `--KEY` and
 * `--no-KEY` for an on/off key. With @p replayed_only, only the keys
 * replayCommand writes are flags (cluster_driver's set). A missing or
 * illegal value sets @p err, naming the flag, and leaves @p c
 * unchanged.
 */
bool readEpochFlag(EpochConfig &c, bool replayed_only, int argc,
                   const char *const *argv, int &i, std::string &err);

} // namespace cmpqos

#endif // CMPQOS_SERVICE_EPOCH_CONFIG_HH
