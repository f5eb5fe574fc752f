#include "cmp_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpqos
{

CmpSystem::CmpSystem(const CmpConfig &config)
    : config_(config), l2_(config.l2, config.numCores, config.scheme),
      memory_(config.mem),
      queues_(static_cast<std::size_t>(config.numCores))
{
    cmpqos_assert(config_.numCores > 0, "need at least one core");
    // The regulator always exists: with no shares programmed, every
    // core sits in the pool and the model degenerates to one shared
    // bus whose utilisation is the *sum* of per-core demand (the
    // paper's unpartitioned 6.4GB/s bus). The bandwidthPartitioning
    // flag controls whether the scheduler programs shares.
    bandwidth_ = std::make_unique<BandwidthRegulator>(config_.mem,
                                                      config_.numCores);
    const bool with_l1 = config_.traceMode == TraceMode::Full;
    cores_.reserve(static_cast<std::size_t>(config_.numCores));
    for (int c = 0; c < config_.numCores; ++c) {
        cores_.push_back(
            std::make_unique<InOrderCore>(c, with_l1, config_.l1));
    }
}

void
CmpSystem::checkCore(CoreId core) const
{
    cmpqos_assert(core >= 0 && core < config_.numCores,
                  "core %d out of range", core);
}

InOrderCore &
CmpSystem::core(CoreId c)
{
    checkCore(c);
    return *cores_[static_cast<std::size_t>(c)];
}

const InOrderCore &
CmpSystem::core(CoreId c) const
{
    checkCore(c);
    return *cores_[static_cast<std::size_t>(c)];
}

void
CmpSystem::enqueueJob(CoreId core, JobExecution *job)
{
    checkCore(core);
    cmpqos_assert(job != nullptr, "null job");
    cmpqos_assert(coreOf(job) == invalidCore, "job %d already queued",
                  job->id());
    queues_[static_cast<std::size_t>(core)].push_back(job);
}

void
CmpSystem::dequeueJob(JobExecution *job)
{
    for (auto &q : queues_) {
        auto it = std::find(q.begin(), q.end(), job);
        if (it != q.end()) {
            q.erase(it);
            return;
        }
    }
}

void
CmpSystem::moveJob(JobExecution *job, CoreId to)
{
    checkCore(to);
    dequeueJob(job);
    queues_[static_cast<std::size_t>(to)].push_back(job);
}

JobExecution *
CmpSystem::runningJob(CoreId core) const
{
    checkCore(core);
    const auto &q = queues_[static_cast<std::size_t>(core)];
    return q.empty() ? nullptr : q.front();
}

std::size_t
CmpSystem::queueLength(CoreId core) const
{
    checkCore(core);
    return queues_[static_cast<std::size_t>(core)].size();
}

CoreId
CmpSystem::coreOf(const JobExecution *job) const
{
    for (int c = 0; c < config_.numCores; ++c) {
        const auto &q = queues_[static_cast<std::size_t>(c)];
        if (std::find(q.begin(), q.end(), job) != q.end())
            return c;
    }
    return invalidCore;
}

void
CmpSystem::rotate(CoreId core)
{
    checkCore(core);
    auto &q = queues_[static_cast<std::size_t>(core)];
    if (q.size() > 1) {
        q.push_back(q.front());
        q.pop_front();
    }
}

AdvanceResult
CmpSystem::advance(CoreId core_id, InstCount max_instr)
{
    checkCore(core_id);
    AdvanceResult result;
    auto &q = queues_[static_cast<std::size_t>(core_id)];
    if (q.empty())
        return result;

    JobExecution *job = q.front();
    InOrderCore &cpu = *cores_[static_cast<std::size_t>(core_id)];

    const InstCount n = std::min<InstCount>(max_instr, job->remaining());
    cmpqos_assert(n > 0, "advancing a completed job");

    if (!job->started())
        job->startCycle = cpu.localTime();

    // Drive the job's access stream through the hierarchy.
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t writebacks = 0;
    DuplicateTagArray *dup = job->duplicateTags();
    SetAssocCache *l1 = cpu.l1();

    job->generator().run(n, [&](Addr addr, bool is_write) {
        if (l1 != nullptr) {
            // Full-trace mode: filter through the private L1.
            AccessResult r1 = l1->access(addr, is_write);
            if (r1.hit)
                return;
            if (r1.writeback)
                l2_.access(core_id, r1.victimAddr, true);
            // The demand miss continues to the L2 below.
            is_write = false; // L1 refill; dirtiness stays in L1
        }
        ++l2_accesses;
        AccessResult r2 = l2_.access(core_id, addr, is_write);
        if (!r2.hit)
            ++l2_misses;
        if (r2.writeback)
            ++writebacks;
        if (dup != nullptr)
            dup->observe(addr, r2.hit);
    });

    // Charge cycles via the additive model with the current
    // bandwidth-dependent miss penalty: this core's own entitlement
    // if a share is programmed, else the shared pool. Only the
    // core-bound term stretches under DVFS; at nominal frequency
    // (scale 1.0) the division is exact and the result is
    // bit-identical to the unscaled model.
    const double tm =
        bandwidth_->missPenalty(core_id, job->memPriority);
    const CpiParams params =
        job->cpiParams(static_cast<double>(config_.l2.hitLatency));
    const double f = cpu.frequencyScale();
    const double cycles = AdditiveCpiModel::cycles(
        params, n, l2_accesses, l2_misses, tm, f);

    // Report bus traffic (miss fills + dirty writebacks).
    const std::uint64_t bytes =
        (l2_misses + writebacks) *
        static_cast<std::uint64_t>(config_.mem.blockBytes);
    memory_.noteWindow(bytes, static_cast<Cycle>(cycles));
    bandwidth_->noteWindow(core_id, bytes, static_cast<Cycle>(cycles));

    // Bookkeeping.
    job->noteExecuted(n);
    job->l2Accesses += l2_accesses;
    job->l2Misses += l2_misses;
    job->writebacks += writebacks;
    job->cyclesRun += cycles;

    cpu.ledger().instructions += n;
    cpu.ledger().cycles += cycles;
    cpu.ledger().l2Accesses += l2_accesses;
    cpu.ledger().l2Misses += l2_misses;
    cpu.ledger().dynWork +=
        f * f * AdditiveCpiModel::scalableCycles(params, n);
    cpu.advanceTime(cycles);

    result.instructions = n;
    result.cycles = cycles;

    if (job->complete()) {
        job->endCycle = cpu.localTime();
        job->retire();
        q.pop_front();
        result.completed = job;
    }
    return result;
}

std::size_t
CmpSystem::totalQueued() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

CoreId
CmpSystem::findIdleCore() const
{
    for (int c = 0; c < config_.numCores; ++c)
        if (queues_[static_cast<std::size_t>(c)].empty())
            return c;
    return invalidCore;
}

CoreId
CmpSystem::leastLoadedCore() const
{
    CoreId best = 0;
    std::size_t best_len = queues_[0].size();
    for (int c = 1; c < config_.numCores; ++c) {
        if (queues_[static_cast<std::size_t>(c)].size() < best_len) {
            best = c;
            best_len = queues_[static_cast<std::size_t>(c)].size();
        }
    }
    return best;
}

} // namespace cmpqos
