#include "common/thread_pool.h"

#include <atomic>
#include <memory>

#include "common/logging.h"

namespace timr {

namespace {

/// Shared state of one ParallelFor batch. Owned by shared_ptr so helper tasks
/// that outlive the caller's wait (by a few bookkeeping instructions) keep it
/// alive.
struct Batch {
  Batch(size_t n_in, const std::function<void(size_t)>& body_in)
      : n(n_in), body(&body_in) {}

  void Run() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*body)(i);
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mu);
          if (error == nullptr) error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  const size_t n;
  // The caller blocks until all n iterations complete, so pointing at its
  // std::function is safe and avoids a copy.
  const std::function<void(size_t)>* body;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
};

thread_local bool t_hand_off = false;

}  // namespace

ThreadPool::HandOff::HandOff() : saved_(t_hand_off) { t_hand_off = true; }

ThreadPool::HandOff::~HandOff() { t_hand_off = saved_; }

ThreadPool::ThreadPool(size_t num_threads) {
  TIMR_CHECK(num_threads > 0);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const bool hand_off = t_hand_off;
  if (!hand_off && (n == 1 || threads_.size() == 1)) {
    // Inline serial path: no scheduling overhead, exceptions propagate as-is.
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto batch = std::make_shared<Batch>(n, body);
  // n - 1 helpers at most when the caller claims iterations too, so a batch
  // smaller than the pool doesn't enqueue tasks that find nothing to do.
  const size_t helpers = std::min(threads_.size(), hand_off ? n : n - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([batch] { batch->Run(); });
  }
  if (!hand_off) batch->Run();
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->completed.load(std::memory_order_acquire) == n;
    });
  }
  // Take the exception out of the batch: a helper task may release the batch
  // last, and the exception must die on this thread, after its handler.
  if (std::exception_ptr error = std::move(batch->error)) {
    std::rethrow_exception(std::move(error));
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace timr
