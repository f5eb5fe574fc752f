#include "thread_pool.hh"

#include "logging.hh"

namespace cmpqos
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    cmpqos_assert(num_threads >= 1 && num_threads <= maxThreads,
                  "thread pool needs 1 to %u workers, not %u", maxThreads,
                  num_threads);
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mu_);
        shutdown_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

unsigned
ThreadPool::hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    MutexLock lock(mu_);
    cmpqos_assert(fn_ == nullptr,
                  "parallelFor is not reentrant (fn called the pool?)");
    fn_ = &fn;
    nextIndex_ = 0;
    total_ = n;
    completed_ = 0;
    ++batchId_;
    workReady_.notify_all();
    while (completed_ != total_)
        batchDone_.wait(lock);
    fn_ = nullptr;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen_batch = 0;
    for (;;) {
        MutexLock lock(mu_);
        while (!(shutdown_ ||
                 (batchId_ != seen_batch && nextIndex_ < total_)))
            workReady_.wait(lock);
        if (shutdown_)
            return;
        if (nextIndex_ >= total_) {
            seen_batch = batchId_;
            continue;
        }
        // Claim indices one at a time until the batch drains. Units
        // of work (whole node simulations) are coarse, so per-index
        // locking is noise.
        while (nextIndex_ < total_) {
            const std::size_t i = nextIndex_++;
            // Snapshot fn_ while still holding mu_: parallelFor
            // resets it once `completed_ == total_`, so reading it
            // after the unlock would race the batch owner.
            const auto *fn = fn_;
            lock.unlock();
            (*fn)(i);
            lock.lock();
            ++completed_;
        }
        seen_batch = batchId_;
        if (completed_ == total_)
            batchDone_.notify_all();
    }
}

} // namespace cmpqos
