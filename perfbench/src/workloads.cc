#include "workloads.hh"

#include <algorithm>
#include <optional>
#include <utility>
#include <thread>

#include <unistd.h>

#include "common/random.hh"
#include "federation/federated_engine.hh"
#include "qos/framework.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/journal.hh"

using namespace cmpqos;

namespace perfbench
{

namespace
{

/**
 * Shape of an engine workload. Sizes were chosen on a 4-core host so
 * that one instance runs a few seconds with a peak RSS near 1 GB
 * (every accepted job keeps an 8 MiB stack sampler until its node's
 * framework dies), and so that no more than three threads are ever
 * runnable at once.
 */
struct EngineShape
{
    int nodes;
    /** 1 = single-process ClusterEngine; more = FederatedEngine with
     *  in-process shard links. */
    int shards;
    Cycle quantum;
    bool oracle;
    bool controller;
    InstCount instructions;
    double meanGap;
    std::uint64_t arrivals;
    /** Bronze (Opportunistic) arrivals allowed. */
    bool bronze;
};

// 20M-instruction jobs, one every 4M cycles on 8 nodes: about 70% of
// the cores' capacity, so almost every job is admitted and advancing
// the quanta dominates host time.
constexpr EngineShape kBatchLong{8, 1, 2'000'000, false, false,
                                 20'000'000, 4e6, 48, true};
// 200k-instruction Gold/Silver jobs every 25k cycles on 16 nodes: far
// more than the nodes can reserve, so most arrivals go through the
// full probe / negotiation sweep over the shard links.
constexpr EngineShape kFedStorm{16, 2, 500'000, true, true,
                                200'000, 25e3, 160, false};

constexpr int kQosdNodes = 8;
constexpr InstCount kQosdInstructions = 200'000;
constexpr Cycle kQosdGap = 250'000;
constexpr std::uint64_t kQosdSubmits = 1000;
constexpr std::uint64_t kQosdEpochSubmits = 125;

const EngineShape &
engineShape(Workload w)
{
    return w == Workload::FedStorm ? kFedStorm : kBatchLong;
}

std::uint64_t
arrivalSeed(std::uint64_t seed)
{
    return seed * 0x9e3779b97f4a7c15ULL ^ 0xa11a1ULL;
}

EpochConfig
qosdEpoch(std::uint64_t seed)
{
    EpochConfig c;
    c.nodes = kQosdNodes;
    c.instructions = kQosdInstructions;
    c.arrivalGap = kQosdGap;
    c.seed = seed;
    c.checkInvariants = true;
    return c;
}

/** Split @p n into parts proportional to @p weights (largest
 *  remainder, ties to the lower index), so a deck holds the mix
 *  exactly instead of in expectation. */
std::vector<std::uint64_t>
apportion(const std::vector<double> &weights, std::uint64_t n)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    std::vector<std::uint64_t> parts(weights.size(), 0);
    std::vector<std::pair<double, std::size_t>> rest;
    std::uint64_t given = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double exact = static_cast<double>(n) * weights[i] / total;
        parts[i] = static_cast<std::uint64_t>(exact);
        given += parts[i];
        rest.emplace_back(-(exact - static_cast<double>(parts[i])), i);
    }
    std::sort(rest.begin(), rest.end());
    for (std::size_t k = 0; given < n; ++k, ++given)
        ++parts[rest[k % rest.size()].second];
    return parts;
}

/** @p counts[i] copies of i, shuffled by @p rng (Fisher-Yates). */
std::vector<std::size_t>
shuffledDeck(const std::vector<std::uint64_t> &counts, Rng &rng)
{
    std::vector<std::size_t> deck;
    for (std::size_t i = 0; i < counts.size(); ++i)
        deck.insert(deck.end(), counts[i], i);
    for (std::size_t i = deck.size(); i > 1; --i)
        std::swap(deck[i - 1], deck[rng.uniformInt(i)]);
    return deck;
}

/**
 * The arrival stream of a workload: @p n jobs whose tiers and
 * benchmarks hold the mix's weights exactly (a seeded shuffle of a
 * full deck), arriving at Poisson times with mean gap @p mean_gap.
 * Exact proportions keep the work per run the same on every seed, so
 * seeds move only the order and the timing; that is what keeps the
 * run-to-run spread inside the bounds.
 */
std::vector<ClusterArrival>
deckArrivals(const ArrivalMix &mix, std::uint64_t n, double mean_gap,
             std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> tier_weights;
    for (const TierSpec &t : mix.tiers)
        tier_weights.push_back(t.weight);
    std::vector<double> bench_weights = mix.benchmarkWeights;
    if (bench_weights.empty())
        bench_weights.assign(mix.benchmarks.size(), 1.0);
    const std::vector<std::size_t> tiers =
        shuffledDeck(apportion(tier_weights, n), rng);
    const std::vector<std::size_t> benches =
        shuffledDeck(apportion(bench_weights, n), rng);
    std::vector<ClusterArrival> out(n);
    double clock = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        clock += rng.exponential(mean_gap);
        ClusterArrival &a = out[i];
        a.time = static_cast<Cycle>(clock);
        a.tier = static_cast<QosTier>(tiers[i]);
        a.request = tierRequest(mix, a.tier, mix.benchmarks[benches[i]]);
        a.instructions = mix.instructions;
    }
    return out;
}

/** An ArrivalProcess over a precomputed stream. */
class ListArrivals final : public ArrivalProcess
{
  public:
    explicit ListArrivals(const std::vector<ClusterArrival> &list)
        : list_(list)
    {
    }

    std::optional<ClusterArrival>
    next() override
    {
        if (pos_ == list_.size())
            return std::nullopt;
        return list_[pos_++];
    }

  private:
    const std::vector<ClusterArrival> &list_;
    std::size_t pos_ = 0;
};

/**
 * The admission clock: wraps the engine's arrival stream and observes
 * its placements and barriers, timing each arrival from the moment it
 * is due (offered, or the barrier that brought the simulation to its
 * quantum) to its verdict. With a SpanLog it also records spans:
 *
 *   run ─┬─ service.admit (id = seq) ─┬─ cluster.quantum (barriers
 *        │                            │   the arrival waited for)
 *        │                            └─ cluster.place
 *        └─ service.drain
 */
class AdmissionClock final : public ArrivalProcess, public EngineObserver
{
  public:
    AdmissionClock(ArrivalProcess &inner, SpanLog *spans)
        : inner_(inner), spans_(spans)
    {
    }

    /** Open the run's root span (traced runs only). */
    void
    begin()
    {
        if (spans_ != nullptr)
            root_ = spans_->open("run", SpanLog::kRoot, 0);
    }

    void
    end()
    {
        if (spans_ != nullptr && root_ != SpanLog::kRoot)
            spans_->close(root_);
    }

    std::optional<ClusterArrival>
    next() override
    {
        std::optional<ClusterArrival> a = inner_.next();
        const double t = hostSeconds();
        if (firstOffered_ < 0.0)
            firstOffered_ = t;
        if (a) {
            pending_ = true;
            waitedBarrier_ = false;
            offeredAt_ = t;
            if (spans_ != nullptr)
                admitSpan_ = spans_->add("service.admit", root_,
                                         offered_, t, t);
            ++offered_;
        }
        lastEvent_ = t;
        return a;
    }

    void
    onPlacement(const ClusterArrival &arrival,
                const PlacementOutcome &outcome) override
    {
        (void)arrival;
        const double t = hostSeconds();
        place_.push_back(t - lastEvent_);
        (waitedBarrier_ ? admitBarrier_ : admitInq_)
            .push_back(t - offeredAt_);
        if (spans_ != nullptr) {
            spans_->add("cluster.place", admitSpan_, outcome.seq,
                        lastEvent_, t);
            spans_->close(admitSpan_);
        }
        pending_ = false;
        lastEvent_ = t;
    }

    void
    onQuantum(Cycle now) override
    {
        const double t = hostSeconds();
        // The engines report the final drain as one more onQuantum at
        // a virtual time that did not advance.
        const bool drain = lastQuantum_ ? now <= *lastQuantum_ : now == 0;
        if (drain) {
            drain_ = t - lastEvent_;
            if (spans_ != nullptr)
                spans_->add("service.drain", root_, quanta_, lastEvent_,
                            t);
        } else {
            quantum_.push_back(t - lastEvent_);
            if (spans_ != nullptr)
                spans_->add("cluster.quantum",
                            pending_ ? admitSpan_ : root_, quanta_,
                            lastEvent_, t);
            if (pending_)
                waitedBarrier_ = true;
            ++quanta_;
            lastQuantum_ = now;
        }
        lastEvent_ = t;
    }

    double firstOffered() const { return firstOffered_; }
    /** Due-to-verdict time of every arrival, seconds. */
    const std::vector<double> &place() const { return place_; }
    const std::vector<double> &quantum() const { return quantum_; }
    /** Offered-to-verdict, split by whether a barrier intervened. */
    const std::vector<double> &admitInq() const { return admitInq_; }
    const std::vector<double> &
    admitBarrier() const
    {
        return admitBarrier_;
    }
    double drain() const { return drain_; }

  private:
    ArrivalProcess &inner_;
    SpanLog *spans_;
    std::uint32_t root_ = SpanLog::kRoot;
    std::uint32_t admitSpan_ = SpanLog::kRoot;
    double firstOffered_ = -1.0;
    double lastEvent_ = 0.0;
    double offeredAt_ = 0.0;
    bool pending_ = false;
    bool waitedBarrier_ = false;
    std::uint64_t offered_ = 0;
    std::uint64_t quanta_ = 0;
    std::optional<Cycle> lastQuantum_;
    std::vector<double> place_;
    std::vector<double> quantum_;
    std::vector<double> admitInq_;
    std::vector<double> admitBarrier_;
    double drain_ = 0.0;
};

/**
 * The oracle reports one "deadline" violation per Strict or Elastic
 * job that completed late; those are the deadline misses the tally
 * counts as failed operations. Any other violation is a broken
 * invariant, and the run's output cannot be trusted.
 */
void
checkOracle(RunReport &r, std::uint64_t violations,
            std::uint64_t deadline_misses, const std::string &report)
{
    r.check(violations <= deadline_misses,
            "the invariant oracle recorded " +
                std::to_string(violations - deadline_misses) +
                " violations besides deadline misses: " + report);
}

std::vector<double>
scaled(std::vector<double> v, double factor)
{
    for (double &x : v)
        x *= factor;
    return v;
}

/** Admission latency samples (seconds) as the two e2e metrics. */
void
addAdmitMetrics(RunReport &r, const std::vector<double> &seconds)
{
    const Summary s = summarize(scaled(seconds, 1e3));
    r.metrics.num("admit_p50_ms", s.p50)
        .num("admit_tail_ms", s.tail)
        .count("admit_n", s.n)
        .num("admit_tail_level", s.tailLevel);
}

/**
 * The cluster-layer metrics of a traced engine run: placement and
 * barrier span percentiles, and the share of the engine's wall time
 * ("run" spans) spent placing arrivals (the placement spans' self
 * time).
 */
void
addClusterMetrics(RunReport &r, const SpanLog &spans,
                  const std::vector<double> &place,
                  const std::vector<double> &quantum)
{
    const Summary ps = summarize(scaled(place, 1e6));
    const Summary qs = summarize(scaled(quantum, 1e3));
    double run_total = 0.0;
    for (double d : spans.durations("run"))
        run_total += d;
    r.metrics.num("cluster.place_us.p50", ps.p50)
        .num("cluster.place_us.tail", ps.tail)
        .count("cluster.place_us.n", ps.n)
        .num("cluster.place_share",
             spans.selfTotal("cluster.place") / run_total)
        .num("cluster.quantum_ms.p50", qs.p50)
        .num("cluster.quantum_ms.tail", qs.tail)
        .count("cluster.quantum_ms.n", qs.n);
}

RunReport
runEngine(Workload w, std::uint64_t seed, double process_start,
          SpanLog *spans)
{
    const EngineShape &shape = engineShape(w);
    RunReport r;
    warmCalibration(workloadMix(w));
    ClusterConfig config = workloadClusterConfig(w, seed);
    const std::vector<ClusterArrival> arrivals = workloadArrivals(w, seed);
    ListArrivals list(arrivals);
    AdmissionClock clock(list, spans);
    config.observer = &clock;

    ClusterMetrics m;
    std::uint64_t violations = 0;
    std::string violation_report;
    double run_end = 0.0;
    clock.begin();
    if (shape.shards > 1) {
        FederationConfig fed;
        fed.shards = shape.shards;
        fed.transport = FedTransport::Inproc;
        FederatedEngine engine(config, fed);
        m = engine.runToCompletion(clock);
        run_end = hostSeconds();
        clock.end();
        violations = engine.invariantViolations();
        if (violations != 0)
            violation_report = engine.invariantReport();
        r.check(engine.invariantChecksRun() > 0,
                "the invariant oracle never ran");
    } else {
        ClusterEngine engine(config);
        m = engine.runToCompletion(clock);
        run_end = hostSeconds();
        clock.end();
        if (engine.invariantChecker() != nullptr) {
            violations = engine.invariantChecker()->totalViolations();
            violation_report = engine.invariantChecker()->report();
        }
    }
    const double peak_mb = peakRssMb();

    r.fingerprints.push_back(m.fingerprint());
    r.check(m.submitted == shape.arrivals,
            "not every arrival was offered for admission");
    const FingerprintTallies tallies = parseFingerprint(m.fingerprint());
    r.check(tallies.ok, "unparseable engine fingerprint");
    checkOracle(r, violations, tallies.deadlineMisses(), violation_report);
    // Every arrival is one admission attempt; an accepted job that did
    // not complete, or a Strict/Elastic job that missed its deadline,
    // is a failed one.
    r.tally.attempt(m.submitted);
    r.tally.fail(tallies.deadlineMisses());
    r.tally.fail(m.accepted > m.completed ? m.accepted - m.completed : 0);

    const double setup = clock.firstOffered() - process_start;
    const double run_seconds = run_end - clock.firstOffered();
    r.metrics.num("setup_s", setup)
        .num("run_s", run_seconds)
        .num("jobs_per_s", static_cast<double>(m.completed) / run_seconds)
        .num("sim_mips",
             static_cast<double>(m.instructions) / run_seconds / 1e6)
        .num("submits_per_s",
             static_cast<double>(m.submitted) / run_seconds);
    addAdmitMetrics(r, clock.place());
    r.metrics.num("peak_rss_mb", peak_mb)
        .count("deadline_misses", tallies.deadlineMisses());

    if (spans != nullptr) {
        addClusterMetrics(r, *spans, clock.place(), clock.quantum());
        r.metrics
            .num("cluster.accept_ratio",
                 static_cast<double>(m.accepted) /
                     static_cast<double>(m.submitted))
            .count("cluster.negotiated", m.negotiated)
            .num("service.admit_inq_ms.p50",
                 percentile(scaled(clock.admitInq(), 1e3), 0.5))
            .num("service.admit_barrier_ms.p50",
                 percentile(scaled(clock.admitBarrier(), 1e3), 0.5))
            .num("service.drain_ms.p50", clock.drain() * 1e3);
    }
    return r;
}

/** Closed-loop client session against an in-process qosd. */
RunReport
runQosd(std::uint64_t seed, double process_start, SpanLog *spans,
        const std::string &scratch)
{
    RunReport r;
    const EpochConfig epoch = qosdEpoch(seed);
    warmCalibration(epochMix(epoch));
    const std::vector<ClusterArrival> arrivals =
        workloadArrivals(Workload::QosdEpochs, seed);

    QosDaemon::Options opts;
    opts.socketPath = scratch + "/qosd.sock";
    opts.journalDir = scratch + "/journal";
    opts.threads = 1;
    opts.epoch = epoch;
    opts.quiet = true;
    QosDaemon daemon(opts);
    std::string err;
    if (!daemon.start(err)) {
        r.check(false, "qosd failed to start: " + err);
        return r;
    }
    std::thread network([&daemon] { daemon.run(); });

    ClientOptions copts;
    copts.socketPath = opts.socketPath;
    copts.clientName = "perfbench";
    QosClient client(copts);
    bool session_ok = client.connect(err);
    const Cycle quantum = client.serverInfo().quantum;
    r.check(session_ok, "connect: " + err);
    const auto submitOf = [&arrivals](std::uint64_t i) {
        Submit s;
        s.ticket = static_cast<std::uint32_t>(i + 1);
        s.tier = static_cast<std::uint8_t>(arrivals[i].tier);
        s.benchmark = arrivals[i].request.benchmark;
        return s;
    };

    // An untimed warm-up epoch on the first epoch's arrivals. A fresh
    // process faults in every page its first epoch's jobs touch; a
    // long-lived daemon pays that once, not per epoch, and on a shared
    // host it is the least steady part of the session. Its cost lands
    // in setup_s, and its fingerprint must equal the first timed
    // epoch's, which replays the same arrivals.
    DrainDone warm;
    for (std::uint64_t i = 0; session_ok && i < kQosdEpochSubmits; ++i) {
        SubmitReply reply;
        session_ok = client.submit(submitOf(i), reply, err) &&
                     reply.error.empty();
        r.check(session_ok, "warm-up submit: " + err + reply.error);
    }
    if (session_ok) {
        session_ok = client.drain(false, warm, err);
        r.check(session_ok, "warm-up drain: " + err);
    }
    const double session_start = hostSeconds();

    const std::uint32_t root =
        spans != nullptr ? spans->open("session", SpanLog::kRoot, 0)
                         : SpanLog::kRoot;
    std::vector<double> admit;
    std::vector<double> inq;
    std::vector<double> barrier;
    std::vector<double> drains;
    std::uint64_t accepted = 0;
    std::uint64_t negotiated = 0;
    std::uint64_t completed = 0;
    std::uint64_t instructions = 0;
    std::uint64_t misses = 0;
    std::uint64_t violations = 0;
    Cycle prev_time = 0;
    bool shut_down = false;
    for (std::uint64_t i = 0; session_ok && i < arrivals.size(); ++i) {
        const Submit s = submitOf(i);
        SubmitReply reply;
        r.tally.attempt();
        const double t0 = hostSeconds();
        const bool ok = client.submit(s, reply, err);
        const double t1 = hostSeconds();
        if (spans != nullptr)
            spans->add("service.submit", root, s.ticket, t0, t1);
        if (!ok || !reply.error.empty()) {
            r.tally.fail();
            session_ok = ok;
            continue;
        }
        admit.push_back(t1 - t0);
        r.check(reply.time == arrivals[i].time,
                "qosd assigned an unexpected arrival time");
        (crossesQuantum(prev_time, reply.time, quantum) ? barrier : inq)
            .push_back(t1 - t0);
        prev_time = reply.time;
        if (reply.outcome != static_cast<std::uint8_t>(
                                 AdmitOutcome::Rejected))
            ++accepted;
        if (reply.outcome == static_cast<std::uint8_t>(
                                 AdmitOutcome::Negotiated))
            ++negotiated;

        if ((i + 1) % kQosdEpochSubmits == 0 || i + 1 == arrivals.size()) {
            const bool last = i + 1 == arrivals.size();
            DrainDone done;
            const double d0 = hostSeconds();
            session_ok = client.drain(last, done, err);
            const double d1 = hostSeconds();
            r.check(session_ok, "drain: " + err);
            if (!session_ok)
                break;
            shut_down = last;
            if (spans != nullptr)
                spans->add("service.drain", root, done.epoch, d0, d1);
            drains.push_back(d1 - d0);
            r.fingerprints.push_back(done.fingerprint);
            const FingerprintTallies t = parseFingerprint(done.fingerprint);
            r.check(t.ok, "unparseable DrainDone fingerprint");
            completed += t.completed;
            instructions += t.instructions;
            misses += t.deadlineMisses();
            violations += t.violations;
            prev_time = 0;
        }
    }
    const double session_end = hostSeconds();
    if (spans != nullptr)
        spans->close(root);
    if (!shut_down) {
        // Make run() return even when the session broke off.
        const char byte = 1;
        if (::write(daemon.shutdownFd(), &byte, 1) != 1)
            r.check(false, "could not signal qosd shutdown");
    }
    client.disconnect();
    network.join();
    const double peak_mb = peakRssMb();

    r.check(r.fingerprints.empty() ||
                warm.fingerprint == r.fingerprints.front(),
            "warm-up epoch fingerprint differs from the first epoch's");
    checkOracle(r, violations, misses, "");
    r.tally.fail(misses);
    const double session = session_end - session_start;
    r.metrics.num("setup_s", session_start - process_start)
        .num("run_s", session)
        .num("jobs_per_s", static_cast<double>(completed) / session)
        .num("sim_mips", static_cast<double>(instructions) / session / 1e6)
        .num("submits_per_s", static_cast<double>(admit.size()) / session);
    addAdmitMetrics(r, admit);
    r.metrics.num("peak_rss_mb", peak_mb)
        .count("deadline_misses", misses);
    if (spans == nullptr)
        return r;

    r.metrics
        .num("cluster.accept_ratio", static_cast<double>(accepted) /
                                         static_cast<double>(admit.size()))
        .count("cluster.negotiated", negotiated)
        .num("service.admit_inq_ms.p50", percentile(scaled(inq, 1e3), 0.5))
        .num("service.admit_barrier_ms.p50",
             percentile(scaled(barrier, 1e3), 0.5))
        .num("service.drain_ms.p50", percentile(scaled(drains, 1e3), 0.5));

    // The cluster layer inside the daemon is only visible through its
    // journals: replay each epoch through an observed ClusterEngine,
    // which must also reproduce the epoch's DrainDone fingerprint.
    std::vector<double> place;
    std::vector<double> quanta;
    for (std::size_t e = 0; e < r.fingerprints.size(); ++e) {
        EpochConfig cfg;
        // Journal 0 is the warm-up epoch's.
        const std::string path = daemon.journalPath(e + 1);
        if (!readJournalConfig(path, cfg, err)) {
            r.check(false, "journal " + path + ": " + err);
            break;
        }
        TraceArrivalProcess trace(path, epochMix(cfg));
        AdmissionClock clock(trace, spans);
        ClusterConfig cc = epochClusterConfig(cfg, 1);
        cc.observer = &clock;
        ClusterEngine engine(cc);
        clock.begin();
        const ClusterMetrics m = engine.runToCompletion(clock);
        clock.end();
        r.check(m.fingerprint() == r.fingerprints[e],
                "journal replay of epoch " + std::to_string(e) +
                    " does not reproduce its DrainDone fingerprint");
        place.insert(place.end(), clock.place().begin(),
                     clock.place().end());
        quanta.insert(quanta.end(), clock.quantum().begin(),
                      clock.quantum().end());
    }
    addClusterMetrics(r, *spans, place, quanta);
    return r;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w :
         {Workload::BatchLong, Workload::FedStorm, Workload::QosdEpochs}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::BatchLong:
        return "batch_long";
    case Workload::FedStorm:
        return "fed_storm";
    case Workload::QosdEpochs:
        return "qosd_epochs";
    }
    return "?";
}

ArrivalMix
workloadMix(Workload w)
{
    if (w == Workload::QosdEpochs)
        return epochMix(qosdEpoch(0));
    const EngineShape &shape = engineShape(w);
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = shape.instructions;
    if (!shape.bronze)
        mix.tiers[static_cast<std::size_t>(QosTier::Bronze)].weight = 0.0;
    return mix;
}

ClusterConfig
workloadClusterConfig(Workload w, std::uint64_t seed)
{
    if (w == Workload::QosdEpochs)
        return epochClusterConfig(qosdEpoch(seed), 1);
    const EngineShape &shape = engineShape(w);
    ClusterConfig config;
    config.nodes = shape.nodes;
    config.threads = 1;
    config.quantum = shape.quantum;
    config.seed = seed;
    config.checkInvariants = shape.oracle;
    config.control.enabled = shape.controller;
    return config;
}

std::vector<ClusterArrival>
workloadArrivals(Workload w, std::uint64_t seed)
{
    if (w == Workload::QosdEpochs) {
        // The client draws tier and benchmark from the deck; the
        // daemon assigns times one arrival gap apart from 0, restarting
        // with every epoch.
        std::vector<ClusterArrival> out =
            deckArrivals(workloadMix(w), kQosdSubmits,
                         static_cast<double>(kQosdGap), arrivalSeed(seed));
        for (std::uint64_t i = 0; i < out.size(); ++i)
            out[i].time = (i % kQosdEpochSubmits) * kQosdGap;
        return out;
    }
    const EngineShape &shape = engineShape(w);
    return deckArrivals(workloadMix(w), shape.arrivals, shape.meanGap,
                        arrivalSeed(seed));
}

std::uint64_t
qosdEpochSubmits()
{
    return kQosdEpochSubmits;
}

void
warmCalibration(const ArrivalMix &mix)
{
    const FrameworkConfig node;
    for (const std::string &b : mix.benchmarks)
        for (const TierSpec &tier : mix.tiers)
            if (tier.weight > 0.0)
                (void)QosFramework::soloCpi(b, tier.ways, node.cmp);
}

RunReport
runWorkload(Workload w, std::uint64_t seed, double process_start,
            SpanLog *spans, const std::string &scratch)
{
    if (w == Workload::QosdEpochs)
        return runQosd(seed, process_start, spans, scratch);
    return runEngine(w, seed, process_start, spans);
}

} // namespace perfbench
