/**
 * @file
 * Main-memory timing model (Section 6: 4GB, 300-cycle access,
 * 6.4GB/s peak bandwidth).
 *
 * The model follows the paper's footnote 2: prior to bus saturation,
 * queueing delay is roughly constant (Little's law), so the effective
 * L2-miss penalty is the base access latency plus a utilisation-
 * dependent queueing term that grows sharply only near saturation.
 * The paper also notes two mitigations used with resource stealing:
 * memory requests from Elastic(X) jobs may be prioritised over those
 * from Opportunistic jobs, and stealing is disabled once the bus
 * saturates — both are modelled here (priority requests skip the
 * queueing term; saturated() exposes the stealing cut-off).
 */

#ifndef CMPQOS_MEM_MEMORY_HH
#define CMPQOS_MEM_MEMORY_HH

#include <cstdint>

#include "common/types.hh"

namespace cmpqos
{

/** Configuration of the memory subsystem. */
struct MemoryConfig
{
    /** Base access latency in core cycles. */
    Cycle accessLatency = 300;
    /** Cap on queueing delay as a multiple of the base latency. */
    double maxQueueingFactor = 3.0;
};

/** Peak bus bandwidth in bytes per core cycle (6.4GB/s at 2GHz). */
constexpr double memPeakBytesPerCycle =
    6.4e9 / static_cast<double>(coreClockHz);
/** Utilisation at or above which a bus (or a share) is saturated. */
constexpr double memSaturationThreshold = 0.85;
/** EWMA coefficient of the utilisation and demand estimates. */
constexpr double memEwmaAlpha = 0.5;

/** Effective L2-miss penalty at utilisation @p rho: base latency
 *  plus the capped M/D/1 wait, which priority requests (Elastic jobs,
 *  footnote 2) skip. MainMemory and BandwidthRegulator share it. */
double queueingMissPenalty(const MemoryConfig &config, double rho,
                           bool priority);

/**
 * Main memory with a windowed bandwidth/queueing model.
 *
 * The simulation engine reports traffic in windows (bytes moved over
 * a span of cycles); the model maintains an EWMA utilisation and
 * derives an effective miss penalty from an M/D/1-style queueing
 * approximation: wait = service * rho / (2 * (1 - rho)).
 */
class MainMemory
{
  public:
    explicit MainMemory(const MemoryConfig &config = MemoryConfig());

    /** Report @p bytes of traffic generated during @p cycles. */
    void noteWindow(std::uint64_t bytes, Cycle cycles);

    /** Current EWMA bus utilisation in [0, 1]. */
    double utilization() const { return utilization_; }

    /** Whether utilisation is past the saturation threshold. */
    bool saturated() const;

    /**
     * Effective L2-miss penalty. Priority requests (Elastic jobs,
     * per footnote 2) skip the queueing term.
     */
    double missPenalty(bool priority = false) const;

    /** Bytes per core cycle the bus can move at peak. */
    double bytesPerCycle() const { return memPeakBytesPerCycle; }

    const MemoryConfig &config() const { return config_; }

    std::uint64_t totalBytes() const { return totalBytes_; }

    void reset();

  private:
    MemoryConfig config_;
    double utilization_ = 0.0;
    std::uint64_t totalBytes_ = 0;
};

} // namespace cmpqos

#endif // CMPQOS_MEM_MEMORY_HH
