/**
 * @file
 * Synthetic memory-reference stream generation for one job.
 *
 * Two trace modes (see DESIGN.md):
 *  - L2Stream: emits the post-L1 access stream directly (h2 accesses
 *    per instruction, L2-granularity stack-distance profile). The L1
 *    filter of a private cache is a static property of the benchmark,
 *    so this mode is exact where it matters and fast enough for
 *    10-job co-simulation.
 *  - Full: emits every load/store (memRefsPerInstr per instruction)
 *    from a combined profile whose near-top component models L1-held
 *    reuse; the stream is meant to be filtered through a real L1
 *    model. Used for validation and examples.
 */

#ifndef CMPQOS_WORKLOAD_GENERATOR_HH
#define CMPQOS_WORKLOAD_GENERATOR_HH

#include <algorithm>
#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"
#include "workload/benchmark.hh"
#include "workload/profile.hh"
#include "workload/stack_sampler.hh"

namespace cmpqos
{

/** Which stream the generator synthesises. */
enum class TraceMode
{
    L2Stream,
    Full,
};

/**
 * Stateful generator of one job's access stream.
 *
 * Address construction: the sampler produces dense block ids; the
 * emitted address is addressBase + blockId * blockSize. Giving each
 * job a distinct, well-separated addressBase keeps job address spaces
 * disjoint (jobs in the paper are independent single-threaded
 * applications) while block-id density keeps set usage uniform.
 */
class AccessGenerator
{
  public:
    AccessGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                    Addr address_base, TraceMode mode = TraceMode::L2Stream,
                    unsigned block_size = 64);

    /**
     * Advance the job by @p n instructions, emitting accesses.
     * They are generated batchSize at a time before @p emit sees
     * them, so @p emit must not read this generator's state.
     * @param emit callable (Addr addr, bool is_write)
     */
    template <typename F>
    void
    run(InstCount n, F &&emit)
    {
        std::uint64_t due = 0;
        accum_ += static_cast<double>(n) * rate_;
        while (accum_ >= 1.0) {
            accum_ -= 1.0;
            ++due;
        }
        // With the cache walk out of the way, consecutive accesses'
        // sampler descents overlap, and a mispredicted hit or miss in
        // emit no longer flushes the next access's descent.
        while (due > 0) {
            Addr addrs[batchSize] = {};
            bool writes[batchSize] = {};
            const auto count = static_cast<std::size_t>(
                std::min<std::uint64_t>(due, batchSize));
            for (std::size_t i = 0; i < count; ++i)
                nextAccess(addrs[i], writes[i]);
            emitted_ += count;
            due -= count;
            for (std::size_t i = 0; i < count; ++i)
                emit(addrs[i], writes[i]);
        }
    }

    /** Accesses per instruction in the configured mode. */
    double rate() const { return rate_; }

    TraceMode mode() const { return mode_; }
    const BenchmarkProfile &profile() const { return *profile_; }

    /** Total accesses emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /**
     * Visit the address of every block in the job's current standing
     * working set, LRU to MRU. Measurement harnesses use this to
     * pre-fill a cache so steady-state miss rates are not polluted by
     * first-touch misses (real jobs pay those once; the framework's
     * wall-clock model carries a warm-up allowance for them).
     *
     * Right after construction the standing set is exactly the
     * profile's maxFiniteDistance() warmed blocks, and that is when
     * every caller visits it. Later it holds the blocks the reuse
     * stack still tracks: for a profile without a Geometric component
     * the stack is capped at maxFiniteDistance() blocks (the deepest
     * distance the profile can ask for), so only that many most
     * recently used blocks; otherwise up to 2^17.
     */
    template <typename F>
    void
    forEachStandingBlock(F &&visit) const
    {
        stack_.forEachLive([&](std::uint64_t block) {
            visit(addressBase_ +
                  block * static_cast<Addr>(blockSize_));
        });
    }

  private:
    /** Accesses run() generates before handing them out. */
    static constexpr std::size_t batchSize = 256;

    void
    nextAccess(Addr &addr, bool &is_write)
    {
        const auto distance = streamProfile_.sample(rng_);
        const std::uint64_t block =
            distance ? stack_.accessAtDistance(*distance)
                     : stack_.accessNew();
        addr = addressBase_ + block * static_cast<Addr>(blockSize_);
        is_write = rng_.bernoulli(profile_->writeFraction);
    }

    const BenchmarkProfile *profile_;
    TraceMode mode_;
    Addr addressBase_;
    unsigned blockSize_;
    Rng rng_;
    /** Declared before stack_, whose cap is read from it. */
    StackDistanceProfile streamProfile_;
    LruStackSampler stack_;
    double rate_;
    double accum_ = 0.0;
    std::uint64_t emitted_ = 0;
};

/**
 * Build the combined (pre-L1) profile used by Full mode: the L2
 * profile's components scaled to h2/memRefsPerInstr total weight,
 * plus a tight geometric component standing in for L1-resident reuse.
 */
StackDistanceProfile buildFullStreamProfile(const BenchmarkProfile &profile);

/** Well-separated address base for a job (disjoint address spaces). */
Addr jobAddressBase(JobId job);

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_GENERATOR_HH
