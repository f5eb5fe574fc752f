#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "cluster/node_worker.hh"
#include "common/logging.hh"

namespace cmpqos
{

namespace
{

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

/** @p t's counters in table order: `1:0:2` for the fingerprint, or
 *  with @p json `"name":1,"name":0,...` for a JSONL object. */
template <typename T, std::size_t N>
void
writeTallies(std::ostream &os, const T &t,
             const TallyField<T> (&fields)[N], bool json)
{
    for (const TallyField<T> &f : fields) {
        if (&f != fields)
            os << (json ? ',' : ':');
        if (json)
            os << '"' << f.name << "\":";
        os << t.*f.member;
    }
}

} // namespace

void
WorkTally::add(const QosFramework &fw)
{
    for (const auto &job : fw.jobs()) {
        if (job->state() == JobState::Completed) {
            ModeTally &mode =
                byMode[static_cast<std::size_t>(job->mode().mode)];
            ++mode.completed;
            if (job->deadlineMet())
                ++mode.deadlineHits;
        }
        stolenWays += job->stolenWays;
    }
    const CmpSystem &sys = fw.system();
    for (int c = 0; c < sys.numCores(); ++c) {
        const CoreLedger &ledger = sys.core(c).ledger();
        instructions += ledger.instructions;
        busyCycles += ledger.cycles;
        dynWork += ledger.dynWork;
    }
}

NodeMetrics
MetricsExporter::collectNode(const NodeWorker &worker)
{
    // Work lost to crashes lives in the carried tally; the live
    // framework only adds to it while the node is up (a crashed
    // node's framework is retired — crash() already added it).
    const NodeCarried &carried = worker.carried();
    WorkTally work = carried.work;
    if (worker.alive())
        work.add(worker.framework());

    NodeMetrics m;
    m.node = worker.id();
    m.virtualTime = worker.virtualNow();
    m.placed = worker.placed();
    m.inFlight = worker.inFlight();
    m.alive = worker.alive();
    m.restarts = worker.restarts();
    m.failed = carried.failed;
    m.byMode = work.byMode;
    for (const ModeTally &mode : work.byMode)
        m.completed += mode.completed;
    m.instructions = work.instructions;
    m.stolenWays = work.stolenWays;
    const int cores = worker.framework().system().numCores();
    const ControllerConfig &control = worker.controllerConfig();
    if (control.enabled)
        m.energy = modelledEnergy(control,
                                  static_cast<double>(m.virtualTime),
                                  cores, work.dynWork);
    m.control = worker.controlTallies();
    const double capacity = static_cast<double>(m.virtualTime) *
                            static_cast<double>(cores);
    m.utilisation =
        capacity <= 0.0 ? 0.0 : std::min(work.busyCycles / capacity, 1.0);
    return m;
}

void
MetricsExporter::aggregate(ClusterMetrics &cluster,
                           const std::vector<NodeMetrics> &nodes)
{
    cluster.nodes = nodes;
    cluster.virtualTime = 0;
    cluster.instructions = 0;
    cluster.completed = 0;
    cluster.stolenWays = 0;
    cluster.byMode = {};
    cluster.faults.failedJobs = 0;
    cluster.energy = 0.0;
    cluster.control = ControlTallies();
    for (const auto &n : nodes) {
        cluster.virtualTime = std::max(cluster.virtualTime,
                                       n.virtualTime);
        cluster.instructions += n.instructions;
        cluster.completed += n.completed;
        cluster.stolenWays += n.stolenWays;
        cluster.faults.failedJobs += n.failed;
        cluster.energy += n.energy;
        cluster.control.accumulate(n.control);
        for (std::size_t i = 0; i < cluster.byMode.size(); ++i) {
            cluster.byMode[i].completed += n.byMode[i].completed;
            cluster.byMode[i].deadlineHits += n.byMode[i].deadlineHits;
        }
    }
}

std::string
ClusterMetrics::fingerprint() const
{
    std::ostringstream os;
    os << "seed=" << seed << " submitted=" << submitted
       << " accepted=" << accepted << " rejected=" << rejected
       << " negotiated=" << negotiated << " truncated=" << truncated
       << " tiers=" << acceptedByTier[0] << "/" << acceptedByTier[1]
       << "/" << acceptedByTier[2] << " vt=" << virtualTime
       << " instr=" << instructions << " completed=" << completed
       << " stolen=" << stolenWays;
    for (std::size_t i = 0; i < byMode.size(); ++i)
        os << " " << modeKeys[i] << "=" << byMode[i].completed << ":"
           << byMode[i].deadlineHits;
    // Fault fields only join the digest when something faulted: an
    // empty fault plan must fingerprint byte-identically to a build
    // without the fault layer (zero-perturbation guarantee).
    const bool faulty = faults.any() || invariantViolations != 0;
    if (faulty) {
        os << " faults=";
        writeTallies(os, faults, faultTallyFields, false);
        os << " violations=" << invariantViolations;
    }
    // Controller fields join the digest only on controller-enabled
    // runs, with energy fixed to milli-units so the formatting is
    // platform-stable (same gating idea as the fault fields above).
    if (controllerOn) {
        os << " energy=" << std::llround(energy * 1e3) << " control=";
        writeTallies(os, control, controlTallyFields, false);
    }
    for (const auto &n : nodes) {
        os << " n" << n.node << "=" << n.placed << ":" << n.completed
           << ":" << n.inFlight << ":" << n.instructions << ":"
           << n.stolenWays << ":" << n.virtualTime;
        if (faulty)
            os << ":" << n.failed << ":" << n.restarts << ":"
               << (n.alive ? 1 : 0);
        if (controllerOn)
            os << ":" << std::llround(n.energy * 1e3) << ":"
               << n.control.retunes;
    }
    return os.str();
}

void
MetricsExporter::writeJsonl(const ClusterMetrics &m, std::ostream &os)
{
    os << "{\"type\":\"cluster\",\"seed\":" << m.seed
       << ",\"threads\":" << m.threads << ",\"shards\":" << m.shards
       << ",\"quantum\":" << m.quantum
       << ",\"submitted\":" << m.submitted
       << ",\"accepted\":" << m.accepted
       << ",\"rejected\":" << m.rejected
       << ",\"negotiated\":" << m.negotiated
       << ",\"truncated\":" << m.truncated << ",\"accepted_by_tier\":{";
    for (std::size_t t = 0; t < numQosTiers; ++t)
        os << (t ? "," : "") << "\""
           << qosTierName(static_cast<QosTier>(t))
           << "\":" << m.acceptedByTier[t];
    os << "},\"accept_rate\":" << num(m.acceptRate())
       << ",\"completed\":" << m.completed
       << ",\"virtual_cycles\":" << m.virtualTime
       << ",\"instructions\":" << m.instructions
       << ",\"stolen_ways\":" << m.stolenWays
       << ",\"deadline_hit_rate\":{";
    // Modes with no completions have no defined rate (hitRate() is
    // NaN, which JSON cannot carry): leave them out of the map.
    bool first_rate = true;
    for (std::size_t i = 0; i < m.byMode.size(); ++i) {
        if (!m.byMode[i].hasHitRate())
            continue;
        os << (first_rate ? "" : ",") << "\"" << modeKeys[i]
           << "\":" << num(m.byMode[i].hitRate());
        first_rate = false;
    }
    os << "},\"faults\":{";
    writeTallies(os, m.faults, faultTallyFields, true);
    os << "},\"invariant_violations\":" << m.invariantViolations;
    // Controller keys appear only on controller-enabled runs so
    // controller-off JSONL stays byte-identical to older captures.
    if (m.controllerOn) {
        os << ",\"controller\":{\"energy\":" << num(m.energy) << ",";
        writeTallies(os, m.control, controlTallyFields, true);
        os << "}";
    }
    os << ",\"wall_seconds\":" << num(m.wallSeconds)
       << ",\"jobs_per_second\":" << num(m.jobsPerWallSecond()) << "}\n";

    for (const auto &n : m.nodes) {
        os << "{\"type\":\"node\",\"node\":" << n.node
           << ",\"virtual_cycles\":" << n.virtualTime
           << ",\"placed\":" << n.placed
           << ",\"completed\":" << n.completed
           << ",\"in_flight\":" << n.inFlight
           << ",\"instructions\":" << n.instructions
           << ",\"utilisation\":" << num(n.utilisation)
           << ",\"stolen_ways\":" << n.stolenWays
           << ",\"failed\":" << n.failed
           << ",\"restarts\":" << n.restarts
           << ",\"alive\":" << (n.alive ? "true" : "false");
        for (std::size_t i = 0; i < n.byMode.size(); ++i)
            os << ",\"" << modeKeys[i]
               << "_completed\":" << n.byMode[i].completed << ",\""
               << modeKeys[i]
               << "_deadline_hits\":" << n.byMode[i].deadlineHits;
        if (m.controllerOn)
            os << ",\"energy\":" << num(n.energy)
               << ",\"retunes\":" << n.control.retunes;
        os << "}\n";
    }
}

void
MetricsExporter::writeCsv(const ClusterMetrics &m, std::ostream &os)
{
    os << "node,virtual_cycles,placed,completed,in_flight,"
          "instructions,utilisation,stolen_ways,failed,restarts,alive";
    for (const char *key : modeKeys)
        os << "," << key << "_completed," << key << "_deadline_hits,"
           << key << "_hit_rate";
    // Controller columns only exist on controller-enabled runs (the
    // fixed header above is golden-tested on controller-off output).
    if (m.controllerOn)
        os << ",energy,retunes";
    os << "\n";
    for (const auto &n : m.nodes) {
        os << n.node << "," << n.virtualTime << "," << n.placed << ","
           << n.completed << "," << n.inFlight << ","
           << n.instructions << "," << num(n.utilisation) << ","
           << n.stolenWays << "," << n.failed << "," << n.restarts
           << "," << (n.alive ? 1 : 0);
        for (const auto &tally : n.byMode) {
            os << "," << tally.completed << "," << tally.deadlineHits
               << ",";
            // No completions: the rate is undefined; leave the cell
            // empty rather than writing a fictitious 1.0 (or NaN).
            if (tally.hasHitRate())
                os << num(tally.hitRate());
        }
        if (m.controllerOn)
            os << "," << num(n.energy) << "," << n.control.retunes;
        os << "\n";
    }
}

void
MetricsExporter::writeJsonlFile(const ClusterMetrics &m,
                                const std::string &path)
{
    std::ofstream os(path, std::ios::app);
    if (!os)
        cmpqos_fatal("cannot open metrics file '%s'", path.c_str());
    writeJsonl(m, os);
}

void
MetricsExporter::writeCsvFile(const ClusterMetrics &m,
                              const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        cmpqos_fatal("cannot open metrics file '%s'", path.c_str());
    writeCsv(m, os);
}

} // namespace cmpqos
