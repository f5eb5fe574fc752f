#include "invariants.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "cpu/dvfs.hh"

namespace cmpqos
{

std::string
InvariantViolation::format() const
{
    std::ostringstream os;
    os << invariant << " node=" << node << " t=" << time << ": "
       << detail;
    return os.str();
}

InvariantChecker::InvariantChecker(std::size_t max_recorded)
    : maxRecorded_(max_recorded)
{
}

void
InvariantChecker::record(const char *invariant, NodeId node, Cycle now,
                         const std::string &subject, std::string detail)
{
    // One report per breached condition, not one per barrier.
    std::string key = invariant;
    key += '/';
    key += std::to_string(node);
    key += '/';
    key += subject;
    if (!reported_.insert(std::move(key)).second)
        return;
    ++total_;
    if (violations_.size() < maxRecorded_)
        violations_.push_back(
            {invariant, node, now, std::move(detail)});
}

WaySnapshot
InvariantChecker::captureWays(const QosFramework &fw)
{
    const PartitionedCache &l2 = fw.system().l2();
    const WayAllocationTable &alloc = l2.allocation();
    WaySnapshot snap;
    snap.assoc = alloc.assoc();
    snap.reservedTargets.resize(
        static_cast<std::size_t>(alloc.numCores()), 0);
    for (int c = 0; c < alloc.numCores(); ++c)
        if (alloc.coreClass(c) == CoreClass::Reserved)
            snap.reservedTargets[static_cast<std::size_t>(c)] =
                alloc.target(c);
    const std::uint64_t sets = l2.config().numSets();
    snap.setOwned.resize(sets, 0);
    for (std::uint64_t s = 0; s < sets; ++s)
        snap.setOwned[s] = l2.setOccupancy(s);
    return snap;
}

void
InvariantChecker::checkWays(NodeId node, Cycle now,
                            const WaySnapshot &snap)
{
    driver_.grant(); // barrier protocol: driver thread only
    unsigned reserved = 0;
    for (std::size_t c = 0; c < snap.reservedTargets.size(); ++c) {
        const unsigned target = snap.reservedTargets[c];
        reserved += target;
        if (target > snap.assoc) {
            std::ostringstream os;
            os << "core " << c << " target " << target
               << " ways exceeds associativity " << snap.assoc;
            record("way-conservation", node, now,
                   "core" + std::to_string(c), os.str());
        }
    }
    if (reserved > snap.assoc) {
        std::ostringstream os;
        os << "reserved targets sum to " << reserved
           << " ways, associativity is " << snap.assoc;
        record("way-conservation", node, now, "sum", os.str());
    }
    for (std::size_t s = 0; s < snap.setOwned.size(); ++s) {
        if (snap.setOwned[s] > snap.assoc) {
            std::ostringstream os;
            os << "set " << s << " owns " << snap.setOwned[s]
               << " blocks, associativity is " << snap.assoc;
            record("way-conservation", node, now,
                   "set" + std::to_string(s), os.str());
        }
    }
}

namespace
{

const Job *
jobById(const QosFramework &fw, JobId id)
{
    for (const auto &job : fw.jobs())
        if (job->id() == id)
            return job.get();
    return nullptr;
}

} // namespace

void
InvariantChecker::checkPartitions(NodeId node, const QosFramework &fw,
                                  Cycle now)
{
    const PartitionedCache &l2 = fw.system().l2();
    const Scheduler &sched = fw.scheduler();
    const unsigned min_ways = fw.stealing().config().minWays;
    for (int c = 0; c < fw.system().numCores(); ++c) {
        const JobId occupant = sched.reservedOccupant(c);
        if (occupant == invalidJob)
            continue;
        const Job *job = jobById(fw, occupant);
        if (job == nullptr || !job->runsReservedNow())
            continue;
        const unsigned have = l2.targetWays(c);
        const unsigned demanded = job->target().cacheWays;
        unsigned floor = demanded;
        if (job->mode().mode == ExecutionMode::Elastic) {
            const unsigned stolen = fw.stealing().stolenWays(*job);
            floor = demanded > stolen ? demanded - stolen : 0;
            floor = std::max(floor, std::min(min_ways, demanded));
        }
        if (have < floor) {
            std::ostringstream os;
            os << executionModeName(job->mode().mode) << " job "
               << job->id() << " on core " << c << " holds " << have
               << " ways, floor is " << floor << " (demanded "
               << demanded << ")";
            record("strict-partition", node, now,
                   "job" + std::to_string(job->id()), os.str());
        }
    }
}

void
InvariantChecker::checkStealReturns(NodeId node, const QosFramework &fw,
                                    Cycle now)
{
    for (const auto &job : fw.jobs()) {
        if (!fw.stealing().cancelActive(*job))
            continue;
        const unsigned held = fw.stealing().stolenWays(*job);
        if (held != 0) {
            std::ostringstream os;
            os << "job " << job->id() << " cancelled stealing but "
               << held << " stolen ways were not returned";
            record("steal-return", node, now,
                   "job" + std::to_string(job->id()), os.str());
        }
    }
}

void
InvariantChecker::checkReservations(NodeId node, const QosFramework &fw,
                                    Cycle now)
{
    const ResourceTimeline &tl = fw.lac().timeline();
    const ResourceVector &cap = tl.capacity();
    const auto &rs = tl.reservations();
    for (std::size_t i = 0; i < rs.size(); ++i) {
        // Reserved load is piecewise constant between reservation
        // starts, so checking at every start covers every instant.
        const ResourceVector at = tl.reservedAt(rs[i].start);
        if (!at.fitsWithin(cap)) {
            std::ostringstream os;
            os << "at t=" << rs[i].start << " reserved " << at.cores
               << "c/" << at.ways << "w/" << at.bandwidth
               << "bw exceeds capacity " << cap.cores << "c/"
               << cap.ways << "w/" << cap.bandwidth << "bw";
            std::string subject = "t";
            subject += std::to_string(rs[i].start);
            record("reservation-capacity", node, now, subject, os.str());
        }
        for (std::size_t j = i + 1; j < rs.size(); ++j) {
            if (rs[i].job == rs[j].job &&
                rs[i].overlaps(rs[j].start, rs[j].end)) {
                std::ostringstream os;
                os << "job " << rs[i].job
                   << " holds two overlapping reservations (["
                   << rs[i].start << "," << rs[i].end << ") and ["
                   << rs[j].start << "," << rs[j].end << "))";
                record("reservation-capacity", node, now,
                       "job" + std::to_string(rs[i].job), os.str());
            }
        }
    }
}

void
InvariantChecker::checkDeadlines(NodeId node, const QosFramework &fw,
                                 Cycle now)
{
    for (const auto &job : fw.jobs()) {
        if (job->state() != JobState::Completed)
            continue;
        if (!job->countsForQos() || job->deadlineMet())
            continue;
        std::ostringstream os;
        os << executionModeName(job->mode().mode) << " job "
           << job->id() << " (" << job->benchmark()
           << ") completed after its deadline " << job->deadline;
        record("deadline", node, now,
               "job" + std::to_string(job->id()), os.str());
    }
}

void
InvariantChecker::checkFrequencies(NodeId node, const QosFramework &fw,
                                   Cycle now)
{
    for (int c = 0; c < fw.system().numCores(); ++c) {
        const std::uint32_t step = fw.system().core(c).frequencyStep();
        if (!dvfsStepValid(step)) {
            std::ostringstream os;
            os << "core " << c << " at DVFS step " << step
               << ", table has " << numDvfsSteps << " steps";
            record("frequency-bounds", node, now,
                   "core" + std::to_string(c), os.str());
        }
    }
}

void
InvariantChecker::checkBandwidthFloors(NodeId node,
                                       const QosFramework &fw,
                                       Cycle now)
{
    const BandwidthRegulator *bw = fw.system().bandwidth();
    if (bw == nullptr)
        return; // bandwidth partitioning off: nothing to floor
    const Scheduler &sched = fw.scheduler();
    for (int c = 0; c < fw.system().numCores(); ++c) {
        const JobId occupant = sched.reservedOccupant(c);
        if (occupant == invalidJob)
            continue;
        const Job *job = jobById(fw, occupant);
        if (job == nullptr || !job->runsReservedNow())
            continue;
        const unsigned share = bw->share(c);
        const unsigned floor = job->target().bandwidthPercent;
        if (share < floor) {
            std::ostringstream os;
            os << executionModeName(job->mode().mode) << " job "
               << job->id() << " on core " << c << " holds " << share
               << "% bandwidth, admission granted " << floor << "%";
            record("bandwidth-floor", node, now,
                   "job" + std::to_string(job->id()), os.str());
        }
    }
}

void
InvariantChecker::checkNode(NodeId node, const QosFramework &fw,
                            Cycle now)
{
    driver_.grant(); // barrier protocol: driver thread only
    ++checks_;
    checkWays(node, now, captureWays(fw));
    checkPartitions(node, fw, now);
    checkStealReturns(node, fw, now);
    checkReservations(node, fw, now);
    checkDeadlines(node, fw, now);
    checkFrequencies(node, fw, now);
    checkBandwidthFloors(node, fw, now);
}

std::string
InvariantChecker::report(std::size_t max) const
{
    driver_.grant();
    std::string out;
    for (std::size_t i = 0; i < violations_.size() && i < max; ++i) {
        out += violations_[i].format();
        out += '\n';
    }
    if (total_ > violations_.size() || total_ > max) {
        out += '(';
        out += std::to_string(total_);
        out += " distinct violations in total)\n";
    }
    return out;
}

} // namespace cmpqos
