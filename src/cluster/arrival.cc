#include "arrival.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "workload/benchmark.hh"

namespace cmpqos
{

const char *
qosTierName(QosTier t)
{
    switch (t) {
      case QosTier::Gold: return "gold";
      case QosTier::Silver: return "silver";
      case QosTier::Bronze: return "bronze";
    }
    return "?";
}

bool
parseQosTier(std::string_view name, QosTier &out)
{
    for (std::size_t t = 0; t < numQosTiers; ++t) {
        if (name == qosTierName(static_cast<QosTier>(t))) {
            out = static_cast<QosTier>(t);
            return true;
        }
    }
    return false;
}

std::string
arrivalBoundsError(Cycle time, InstCount instructions)
{
    if (time > maxArrivalTime)
        return "arrival time " + std::to_string(time) +
               " is beyond the largest accepted, " +
               std::to_string(maxArrivalTime) + " cycles";
    if (instructions == 0 || instructions > maxArrivalInstructions)
        return "instruction count " + std::to_string(instructions) +
               " is outside [1, " + std::to_string(maxArrivalInstructions) +
               "]";
    return {};
}

ArrivalMix
ArrivalMix::defaults()
{
    ArrivalMix mix;
    mix.benchmarks = BenchmarkRegistry::representatives();
    mix.tiers[static_cast<std::size_t>(QosTier::Gold)] =
        TierSpec{ModeSpec::strict(), 1.05, 7, 0.5};
    mix.tiers[static_cast<std::size_t>(QosTier::Silver)] =
        TierSpec{ModeSpec::elastic(0.05), 2.0, 7, 0.3};
    mix.tiers[static_cast<std::size_t>(QosTier::Bronze)] =
        TierSpec{ModeSpec::opportunistic(), 3.0, 4, 0.2};
    return mix;
}

JobRequest
tierRequest(const ArrivalMix &mix, QosTier t, const std::string &benchmark)
{
    const TierSpec &spec = mix.tiers[static_cast<std::size_t>(t)];
    JobRequest req;
    req.benchmark = benchmark;
    req.mode = spec.mode;
    req.deadlineFactor = spec.deadlineFactor;
    req.ways = spec.ways;
    return req;
}

PoissonArrivalProcess::PoissonArrivalProcess(double mean_interarrival,
                                             ArrivalMix mix,
                                             std::uint64_t seed,
                                             std::uint64_t max_jobs)
    : meanInterarrival_(mean_interarrival), mix_(std::move(mix)),
      rng_(seed), maxJobs_(max_jobs)
{
    cmpqos_assert(mean_interarrival > 0.0,
                  "mean inter-arrival time must be positive");
    cmpqos_assert(!mix_.benchmarks.empty(),
                  "arrival mix has no benchmarks");
    for (const auto &b : mix_.benchmarks) {
        if (!BenchmarkRegistry::has(b))
            cmpqos_fatal("arrival mix names unknown benchmark '%s'",
                         b.c_str());
    }
    if (!mix_.benchmarkWeights.empty() &&
        mix_.benchmarkWeights.size() != mix_.benchmarks.size()) {
        cmpqos_fatal("arrival mix has %zu benchmarks but %zu weights",
                     mix_.benchmarks.size(),
                     mix_.benchmarkWeights.size());
    }
    const std::string bad = arrivalBoundsError(0, mix_.instructions);
    if (!bad.empty())
        cmpqos_fatal("arrival mix: %s", bad.c_str());
}

std::optional<ClusterArrival>
PoissonArrivalProcess::next()
{
    if (maxJobs_ != 0 && emitted_ >= maxJobs_)
        return std::nullopt;
    ++emitted_;
    clock_ += rng_.exponential(meanInterarrival_);

    const std::size_t bench =
        mix_.benchmarkWeights.empty()
            ? static_cast<std::size_t>(
                  rng_.uniformInt(mix_.benchmarks.size()))
            : rng_.discrete(mix_.benchmarkWeights);
    std::vector<double> tier_weights(numQosTiers);
    for (std::size_t t = 0; t < numQosTiers; ++t)
        tier_weights[t] = mix_.tiers[t].weight;
    const auto tier = static_cast<QosTier>(rng_.discrete(tier_weights));

    ClusterArrival a;
    a.time = static_cast<Cycle>(clock_);
    a.tier = tier;
    a.request = tierRequest(mix_, tier, mix_.benchmarks[bench]);
    a.instructions = mix_.instructions;
    return a;
}

TraceArrivalProcess::TraceArrivalProcess(std::istream &in, ArrivalMix mix,
                                         const std::string &origin)
    : mix_(std::move(mix))
{
    parse(in, origin);
}

TraceArrivalProcess::TraceArrivalProcess(const std::string &path,
                                         ArrivalMix mix)
    : mix_(std::move(mix))
{
    std::ifstream in(path);
    if (!in)
        cmpqos_fatal("cannot open arrival trace '%s'", path.c_str());
    parse(in, path);
}

void
TraceArrivalProcess::parse(std::istream &in, const std::string &origin)
{
    std::string line;
    std::size_t lineno = 0;
    Cycle last = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::uint64_t time = 0;
        std::string benchmark, tier_name;
        if (!(fields >> time)) {
            if (time == 0)
                continue; // blank / comment-only line
            // The time overflowed 64 bits and reads as the largest
            // value, which the bounds check below refuses.
            fields.clear();
        }
        if (!(fields >> benchmark >> tier_name))
            cmpqos_fatal("%s:%zu: expected '<time> <benchmark> <tier> "
                         "[instructions]'",
                         origin.c_str(), lineno);
        if (!BenchmarkRegistry::has(benchmark))
            cmpqos_fatal("%s:%zu: unknown benchmark '%s'",
                         origin.c_str(), lineno, benchmark.c_str());
        QosTier tier;
        if (!parseQosTier(tier_name, tier))
            cmpqos_fatal("%s:%zu: unknown tier '%s' (want gold, silver "
                         "or bronze)",
                         origin.c_str(), lineno, tier_name.c_str());
        // Optional: an absent count keeps the mix default; a token
        // that is not a count reads as 0, and one that overflows as
        // the largest value, both refused below.
        InstCount instructions = mix_.instructions;
        fields >> instructions;
        const std::string bad = arrivalBoundsError(time, instructions);
        if (!bad.empty())
            cmpqos_fatal("%s:%zu: %s", origin.c_str(), lineno,
                         bad.c_str());
        if (time < last)
            cmpqos_fatal("%s:%zu: arrival times must be sorted "
                         "(%llu after %llu)",
                         origin.c_str(), lineno,
                         static_cast<unsigned long long>(time),
                         static_cast<unsigned long long>(last));
        last = time;

        ClusterArrival a;
        a.time = time;
        a.tier = tier;
        a.request = tierRequest(mix_, tier, benchmark);
        a.instructions = instructions;
        arrivals_.push_back(std::move(a));
    }
}

std::optional<ClusterArrival>
TraceArrivalProcess::next()
{
    if (pos_ >= arrivals_.size())
        return std::nullopt;
    return arrivals_[pos_++];
}

} // namespace cmpqos
