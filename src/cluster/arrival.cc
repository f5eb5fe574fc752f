#include "arrival.hh"

#include <cmath>
#include <fstream>
#include <ostream>

#include "common/line_file.hh"
#include "common/logging.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

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

std::string
arrivalBoundsError(Cycle time, InstCount instructions,
                   const std::string &benchmark)
{
    if (!BenchmarkRegistry::has(benchmark))
        return "unknown benchmark '" + benchmark + "'";
    const InstCount most =
        maxJobInstructions(BenchmarkRegistry::get(benchmark));
    std::string why = arrivalBoundsError(time, instructions);
    if (why.empty() && instructions > most)
        why = "instruction count " + std::to_string(instructions) +
              " would take a " + benchmark +
              " job past its address window (at most " +
              std::to_string(most) + ")";
    return why;
}

void
ArrivalLine::write(std::ostream &os) const
{
    os << time << ' ' << benchmark << ' ' << qosTierName(tier) << ' '
       << instructions << '\n';
}

bool
ArrivalLine::read(const std::vector<std::string_view> &words,
                  std::string &why)
{
    if (!checkWordCount(words, 3, 4,
                        "<time> <benchmark> <tier> [instructions]", why) ||
        !readWord(words[0], time, "arrival time", why) ||
        (words.size() == 4 &&
         !readWord(words[3], instructions, "instruction count", why)))
        return false;
    benchmark = words[1];
    if (!BenchmarkRegistry::has(std::string(benchmark)))
        why = "unknown benchmark '" + std::string(benchmark) + "'";
    else if (!parseQosTier(words[2], tier))
        why = "unknown tier '" + std::string(words[2]) +
              "' (want gold, silver or bronze)";
    else
        why = arrivalBoundsError(time, instructions, std::string(benchmark));
    return why.empty();
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
    if (!(mean_interarrival > 0.0) || !std::isfinite(mean_interarrival))
        cmpqos_fatal("mean inter-arrival time %g is not a positive, "
                     "finite cycle count",
                     mean_interarrival);
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
    for (const auto &b : mix_.benchmarks) {
        const std::string bad = arrivalBoundsError(0, mix_.instructions, b);
        if (!bad.empty())
            cmpqos_fatal("arrival mix: %s", bad.c_str());
    }
}

std::optional<ClusterArrival>
PoissonArrivalProcess::next()
{
    if (maxJobs_ != 0 && emitted_ >= maxJobs_)
        return std::nullopt;
    ++emitted_;
    clock_ += rng_.exponential(meanInterarrival_);
    if (clock_ > static_cast<double>(maxArrivalTime))
        cmpqos_fatal("Poisson arrival %llu at mean inter-arrival %g "
                     "cycles lands beyond the largest accepted time, "
                     "%llu cycles",
                     static_cast<unsigned long long>(emitted_),
                     meanInterarrival_,
                     static_cast<unsigned long long>(maxArrivalTime));

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
    Cycle last = 0;
    forEachLine(in, [&](std::size_t number, const auto &words) {
        ArrivalLine line;
        line.instructions = mix_.instructions;
        std::string why;
        if (!line.read(words, why))
            cmpqos_fatal("%s:%zu: %s", origin.c_str(), number, why.c_str());
        if (line.time < last)
            cmpqos_fatal("%s:%zu: arrival times must be sorted "
                         "(%llu after %llu)",
                         origin.c_str(), number,
                         static_cast<unsigned long long>(line.time),
                         static_cast<unsigned long long>(last));
        last = line.time;
        arrivals_.push_back(
            {line.time, line.tier,
             tierRequest(mix_, line.tier, std::string(line.benchmark)),
             line.instructions});
        return true;
    });
}

std::optional<ClusterArrival>
TraceArrivalProcess::next()
{
    if (pos_ >= arrivals_.size())
        return std::nullopt;
    return arrivals_[pos_++];
}

} // namespace cmpqos
