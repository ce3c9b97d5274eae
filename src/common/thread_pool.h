// Fixed-size thread pool used by the LocalCluster to run shuffle and reducer
// tasks. Tasks are fire-and-forget std::function<void()>; callers synchronize
// with WaitIdle or their own completion signal. ParallelFor is the
// bulk-submit primitive the cluster's parallel pipeline is built on; several
// threads may issue ParallelFor batches on one pool at once.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace timr {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Block until every submitted task has finished running.
  void WaitIdle();

  /// Run `body(i)` for every i in [0, n), spreading iterations over the pool
  /// workers plus the calling thread, and return once all n iterations have
  /// finished. Iterations are claimed dynamically (morsel stealing), so
  /// uneven per-index cost balances automatically.
  ///
  /// Exception-safe: if any body throws, remaining un-started iterations are
  /// skipped and the first exception (by completion order) is rethrown on the
  /// calling thread once the batch has drained. With a single-threaded pool
  /// (or n == 1) the body runs inline on the caller, so single-thread
  /// execution is exactly the serial loop. Under a HandOff on the calling
  /// thread, every iteration runs on the pool instead, and the caller only
  /// waits.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// While alive, ParallelFor calls on the constructing thread hand every
  /// iteration to the pool's threads and only wait for them. For threads
  /// outside the pool that drive work on it beside other such threads, so
  /// that the pool's threads do all of the work (and the allocating). Never
  /// construct one on a pool thread: its ParallelFor could then wait for
  /// iterations queued behind itself.
  class HandOff {
   public:
    HandOff();
    ~HandOff();
    HandOff(const HandOff&) = delete;
    HandOff& operator=(const HandOff&) = delete;

   private:
    bool saved_;
  };

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace timr
