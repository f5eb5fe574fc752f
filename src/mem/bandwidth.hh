/**
 * @file
 * Off-chip bandwidth partitioning — the RUM dimension the paper
 * explicitly defers to future work (Section 3.2: "a complete QoS
 * target would include off-chip bandwidth rate...") and the piece
 * that separates its cache-only framework from Virtual Private
 * Caches [15], which combine cache and memory-controller policies.
 *
 * Model: each core may hold a guaranteed share of the peak memory
 * bandwidth (a percentage); unreserved cores compete for the residual
 * pool. A core's effective miss penalty is derived from the
 * utilisation of *its own* share (reserved cores) or of the shared
 * residual (pool cores), using the same M/D/1-style queueing term as
 * the unpartitioned bus — so a reserved core's latency is insulated
 * from other cores' traffic, the bandwidth analogue of way
 * partitioning.
 */

#ifndef CMPQOS_MEM_BANDWIDTH_HH
#define CMPQOS_MEM_BANDWIDTH_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/memory.hh"

namespace cmpqos
{

/**
 * Per-core bandwidth shares and windowed per-core utilisation.
 */
class BandwidthRegulator
{
  public:
    BandwidthRegulator(const MemoryConfig &config, int num_cores);

    int numCores() const { return numCores_; }

    /**
     * Reserve @p percent of peak bandwidth for @p core (0 returns the
     * core to the pool). Total reserved share must stay <= 100.
     */
    void setShare(CoreId core, unsigned percent);
    unsigned share(CoreId core) const;

    /** Sum of reserved shares (percent). */
    unsigned reservedPercent() const;

    /** Residual share available to pool cores (percent). */
    unsigned poolPercent() const { return 100 - reservedPercent(); }

    /** Report @p bytes moved by @p core over @p cycles. */
    void noteWindow(CoreId core, std::uint64_t bytes, Cycle cycles);

    /**
     * Utilisation of the capacity @p core is entitled to: its own
     * share if reserved, else the pool share divided among pool
     * cores' combined traffic.
     */
    double utilization(CoreId core) const;

    /** Effective miss penalty for @p core under its entitlement. */
    double missPenalty(CoreId core, bool priority = false) const;

    /** Whether @p core's entitled bandwidth is saturated. */
    bool saturated(CoreId core) const;

    void reset();

  private:
    void checkCore(CoreId core) const;
    double entitledBytesPerCycle(CoreId core) const;

    /** Combined demand of pool (share == 0) cores, bytes/cycle. */
    double poolDemand() const;

    MemoryConfig config_;
    int numCores_;
    std::vector<unsigned> shares_;
    /** EWMA bytes-per-cycle demand per core. */
    std::vector<double> demand_;
};

} // namespace cmpqos

#endif // CMPQOS_MEM_BANDWIDTH_HH
