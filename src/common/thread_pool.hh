/**
 * @file
 * A fixed-size worker thread pool with a batch-barrier API, used by
 * the cluster engine (src/cluster) to advance independent CMP node
 * simulations concurrently.
 *
 * The pool deliberately exposes only parallelFor: run fn(i) for every
 * i in [0, n) and block until all calls return. Cluster determinism
 * rests on this shape — each index is an independent unit of work
 * (one node), so the result is identical no matter how many workers
 * execute the batch or how indices interleave.
 *
 * All batch-cursor state is guarded by mu_ and checked by Clang's
 * thread-safety analysis (CMPQOS_THREAD_SAFETY=ON).
 */

#ifndef CMPQOS_COMMON_THREAD_POOL_HH
#define CMPQOS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hh"

namespace cmpqos
{

/**
 * Fixed set of worker threads executing index batches.
 */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers, in [1, maxThreads]. */
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run fn(0) .. fn(n-1) on the pool's workers and block until all
     * calls have returned. Calls must be independent of one another;
     * fn must not call back into the pool. fn must not throw (the
     * simulator reports errors via panic/fatal, which abort).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn)
        CMPQOS_EXCLUDES(mu_);

    /** std::thread::hardware_concurrency(), but never 0. */
    static unsigned hardwareConcurrency();

    /** The most workers a pool may have: the bound on a tool's
     *  --threads flag (where 0 means every hardware thread) and on a
     *  shard's FedInit. */
    static constexpr unsigned maxThreads = 1024;

  private:
    void workerLoop() CMPQOS_EXCLUDES(mu_);

    std::vector<std::thread> workers_;

    Mutex mu_;
    /** condition_variable_any: its lock argument is the annotated
     *  MutexLock, so waits stay visible to the analysis. */
    std::condition_variable_any workReady_;
    std::condition_variable_any batchDone_;
    /** Incremented per parallelFor call; wakes workers. */
    std::uint64_t batchId_ CMPQOS_GUARDED_BY(mu_) = 0;
    const std::function<void(std::size_t)> *fn_ CMPQOS_GUARDED_BY(mu_) =
        nullptr;
    std::size_t nextIndex_ CMPQOS_GUARDED_BY(mu_) = 0;
    std::size_t total_ CMPQOS_GUARDED_BY(mu_) = 0;
    std::size_t completed_ CMPQOS_GUARDED_BY(mu_) = 0;
    bool shutdown_ CMPQOS_GUARDED_BY(mu_) = false;
};

} // namespace cmpqos

#endif // CMPQOS_COMMON_THREAD_POOL_HH
