/**
 * @file
 * Open-loop job arrival processes for the cluster engine: a stream of
 * timestamped, SLO-tagged job requests generated independently of the
 * system's admission decisions (jobs keep arriving whether or not the
 * cluster keeps up — the serving-system shape of Section 3.1's
 * working environment, where a Global Admission Controller fronts a
 * fleet of CMP nodes).
 *
 * Two concrete processes are provided: Poisson arrivals with
 * per-job benchmark / QoS-tier / deadline sampling over the
 * BenchmarkRegistry workloads, and a replayable trace-file process
 * for regression experiments. Both are fully determined by their
 * construction parameters (seeded Rng; file contents), which the
 * cluster determinism guarantee builds on.
 */

#ifndef CMPQOS_CLUSTER_ARRIVAL_HH
#define CMPQOS_CLUSTER_ARRIVAL_HH

#include <array>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "qos/workload_spec.hh"

namespace cmpqos
{

/**
 * Service tiers a request is tagged with, mapping onto the paper's
 * execution modes (Section 3.3): Gold buys a strict reservation with
 * a tight deadline, Silver an elastic reservation with a moderate
 * deadline, Bronze runs opportunistically on spare resources.
 */
enum class QosTier
{
    Gold,
    Silver,
    Bronze,
};

constexpr std::size_t numQosTiers = 3;

/** "gold", "silver" or "bronze": the one tier-name table. */
const char *qosTierName(QosTier t);

/** Parse a name qosTierName writes; false on anything else. */
bool parseQosTier(std::string_view name, QosTier &out);

/**
 * Bounds on one arrival's time and instruction count, checked by
 * arrivalBoundsError where arrivals enter from outside (trace files,
 * qosd Submits). They keep every sum the engine and the LAC form
 * from an arrival below maxCycle. tw is instructions times solo CPI
 * times the wall-clock margin; the models' solo CPIs are below 20,
 * so tw stays below 2^46. Even a deadline of 16 tw then ends before
 * 2^60 cycles past the arrival, and time + deadline + a quantum
 * below 2^62 stays below 2^63.
 */
constexpr Cycle maxArrivalTime = Cycle{1} << 60;
constexpr InstCount maxArrivalInstructions = InstCount{1} << 40;

/** Empty when 0 <= @p time <= maxArrivalTime and 1 <= @p instructions
 *  <= maxArrivalInstructions; otherwise a message naming the value. */
std::string arrivalBoundsError(Cycle time, InstCount instructions);

/** The bounds above, and @p benchmark must be a registry name whose
 *  job stays inside its address window on an L2-stream node, as every
 *  tool's nodes are: at most maxJobInstructions() instructions. */
std::string arrivalBoundsError(Cycle time, InstCount instructions,
                               const std::string &benchmark);

/** One arrival-trace line, `<time> <benchmark> <tier>
 *  [instructions]`: the one definition the qosd journal writes and
 *  TraceArrivalProcess reads. */
struct ArrivalLine
{
    Cycle time = 0;
    std::string_view benchmark;
    QosTier tier = QosTier::Gold;
    InstCount instructions = 0;

    /** Write every column and a newline. */
    void write(std::ostream &os) const;

    /** Read a line's words (benchmark points into them); a count left
     *  out keeps `instructions`. False, with @p why set, on a missing,
     *  malformed or out-of-bounds column or a word after the count. */
    bool read(const std::vector<std::string_view> &words,
              std::string &why);
};

/** How one tier translates into a concrete job request. */
struct TierSpec
{
    ModeSpec mode = ModeSpec::strict();
    /** (td - ta) / tw for jobs of this tier. */
    double deadlineFactor = 1.05;
    /** L2 ways requested. */
    unsigned ways = 7;
    /** Sampling weight within the mix. */
    double weight = 1.0;
};

/**
 * The population a Poisson process samples each arrival from.
 */
struct ArrivalMix
{
    /** Benchmarks drawn per arrival (must be registry names). */
    std::vector<std::string> benchmarks;
    /** Per-benchmark weights; empty = uniform. */
    std::vector<double> benchmarkWeights;
    /** Tier translation + weights, indexed by QosTier. */
    std::array<TierSpec, numQosTiers> tiers;
    /** Instructions per job. */
    InstCount instructions = 2'000'000;

    /**
     * Default mix: the paper's three representative benchmarks
     * (bzip2 / hmmer / gobmk, uniform), tiers weighted
     * Gold 50% / Silver 30% / Bronze 20% — the tight/moderate/relaxed
     * deadline proportions of Section 6 recast as service classes.
     */
    static ArrivalMix defaults();
};

/** One arrival: when, what, and under which SLO. */
struct ClusterArrival
{
    Cycle time = 0;
    QosTier tier = QosTier::Gold;
    JobRequest request;
    InstCount instructions = 0;
};

/**
 * A monotone stream of job arrivals.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /**
     * The next arrival, with time >= every previously returned time;
     * nullopt once the stream ends.
     */
    virtual std::optional<ClusterArrival> next() = 0;
};

/**
 * Poisson (exponential inter-arrival) process over an ArrivalMix.
 */
class PoissonArrivalProcess : public ArrivalProcess
{
  public:
    /**
     * @param mean_interarrival Mean gap between arrivals, cycles; a
     *        positive, finite value (fatal otherwise). next() is fatal
     *        once the clock passes maxArrivalTime.
     * @param max_jobs Stream length (stream is infinite if 0 — pair
     *        with ClusterEngine::runForDuration).
     */
    PoissonArrivalProcess(double mean_interarrival, ArrivalMix mix,
                          std::uint64_t seed, std::uint64_t max_jobs);

    std::optional<ClusterArrival> next() override;

  private:
    double meanInterarrival_;
    ArrivalMix mix_;
    Rng rng_;
    std::uint64_t maxJobs_;
    std::uint64_t emitted_ = 0;
    double clock_ = 0.0;
};

/**
 * Replays arrivals from a text trace: ArrivalLine records sorted by
 * time, read by the line reader (common/line_file.hh). A line without
 * a count takes the mix's, as does tier translation. A bad line is
 * fatal and names `<origin>:<line>`.
 */
class TraceArrivalProcess : public ArrivalProcess
{
  public:
    /** Parse from a stream (@p origin names it in error messages). */
    TraceArrivalProcess(std::istream &in, ArrivalMix mix,
                        const std::string &origin = "<stream>");

    /** Parse from a file; fatal() if unreadable. */
    TraceArrivalProcess(const std::string &path, ArrivalMix mix);

    std::optional<ClusterArrival> next() override;

    std::size_t totalArrivals() const { return arrivals_.size(); }

  private:
    void parse(std::istream &in, const std::string &origin);

    ArrivalMix mix_;
    std::vector<ClusterArrival> arrivals_;
    std::size_t pos_ = 0;
};

/** Build a JobRequest for @p benchmark under tier @p t of @p mix. */
JobRequest tierRequest(const ArrivalMix &mix, QosTier t,
                       const std::string &benchmark);

} // namespace cmpqos

#endif // CMPQOS_CLUSTER_ARRIVAL_HH
