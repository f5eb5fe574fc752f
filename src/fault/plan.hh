/**
 * @file
 * Declarative fault plans for the cluster engine.
 *
 * A FaultPlan is a list of faults pinned to placement quanta of the
 * simulated clock — node crashes and restarts fire at a quantum
 * barrier, probe drops / probe timeouts / duplicated negotiation
 * replies / slow quanta cover a window of quanta. Because every fault
 * is keyed to *virtual* time and executed by the driver thread at a
 * barrier, a plan replays bit-identically at any worker-thread count;
 * `seed + plan` is a complete reproducer for any failure it provokes.
 *
 * Plans have a line-oriented text form (one directive per line, `#`
 * comments), so failing cases can be copied straight out of a test
 * log into `cluster_driver --fault-plan`. The directives and their
 * operands are one table in plan.cc, which FaultSpec::format writes
 * and FaultPlan::tryParse reads (DESIGN.md §9 lists them). The four
 * shard-link directives name a SHARD, not a node; the single-process
 * engine rejects a plan containing them.
 */

#ifndef CMPQOS_FAULT_PLAN_HH
#define CMPQOS_FAULT_PLAN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cmpqos
{

/** The fault taxonomy the injector knows how to execute. */
enum class FaultType
{
    /** Node dies at a quantum barrier: running jobs fail, waiting
     *  jobs are offered for relocation, probes stop. */
    NodeCrash,
    /** Crashed node comes back with a fresh (empty) framework. */
    NodeRestart,
    /** GAC->LAC probes to the node are silently lost (no reply). */
    ProbeDrop,
    /** Probes time out `failures` times before succeeding; beyond
     *  the retry budget the node counts as unreachable. */
    ProbeTimeout,
    /** The node's negotiation acceptance reply arrives twice. */
    DuplicateReply,
    /** The node advances `stallCycles` short of each quantum target
     *  inside the window (a latency spike, in virtual time). */
    SlowQuantum,
    /** Coordinator->shard messages lose their first transmission and
     *  are retransmitted (federated engine; target is a shard id). */
    LinkDrop,
    /** Coordinator->shard messages are delivered twice; the shard's
     *  sequence dedup must absorb the copy (target is a shard id). */
    LinkDup,
    /** Coordinator->shard messages are charged `stallCycles` of
     *  virtual link latency (target is a shard id). */
    LinkDelay,
    /** The shard is unreachable for the window: its nodes take no
     *  placements and its quantum advances are deferred until the
     *  partition heals (target is a shard id). */
    Partition,
};

/** One planned fault. */
struct FaultSpec
{
    FaultType type = FaultType::NodeCrash;
    NodeId node = 0;
    /** Quantum index the fault fires at (crash/restart) or the first
     *  quantum of its window (the rest). */
    std::uint64_t quantum = 0;
    /** Window length in quanta (window faults only). */
    std::uint64_t durationQuanta = 1;
    /** ProbeTimeout: timed-out attempts before a probe succeeds. */
    unsigned failures = 1;
    /** SlowQuantum: cycles the node falls short of each target.
     *  LinkDelay: virtual link latency charged per message. */
    Cycle stallCycles = 250'000;

    /** The directive's text form (one plan line). */
    std::string format() const;
};

/**
 * An ordered list of faults plus the text round-trip and the seeded
 * random generator the chaos tests sweep with.
 */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** Semicolon-joined directives — the one-line reproducer form. */
    std::string summary() const;

    /** One directive per line (re-parseable). */
    void write(std::ostream &os) const;

    /**
     * Parse the text form. @return false (with @p error filled) on a
     * malformed directive; the plan is left partially filled.
     */
    static bool tryParse(std::istream &is, FaultPlan &out,
                        std::string &error);

    /** Parse a plan file; fatal() on I/O or syntax errors. */
    static FaultPlan parseFile(const std::string &path);

    /**
     * Seeded random plan over @p nodes nodes and quanta
     * [1, max_quantum]: roughly @p events faults mixing every type,
     * with most crashes paired with a later restart. Deterministic in
     * @p seed.
     */
    static FaultPlan random(std::uint64_t seed, int nodes,
                            std::uint64_t max_quantum,
                            std::size_t events);

    /**
     * Seeded random plan for a federated run: node faults as random()
     * plus shard-link faults (drop/dup/delay/partition) over @p shards
     * shards. Deterministic in @p seed.
     */
    static FaultPlan randomFederated(std::uint64_t seed, int nodes,
                                     int shards,
                                     std::uint64_t max_quantum,
                                     std::size_t events);

    /** True when any directive targets a shard link. */
    bool hasLinkFaults() const;

    /**
     * Fatal() unless every node directive targets a node in
     * [0, nodes) and every shard-link directive targets a shard in
     * [0, shards). @p shards 0 (the single-process engine) rejects
     * any plan containing link faults — they would silently no-op.
     */
    void validate(int nodes, int shards = 0) const;
};

} // namespace cmpqos

#endif // CMPQOS_FAULT_PLAN_HH
