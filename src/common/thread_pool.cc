#include "common/thread_pool.h"

#include <atomic>
#include <memory>

namespace dynopt {

namespace {

/// Shared state of one ParallelFor call. Held by shared_ptr because a
/// helper task can still sit in the queue after the call returned (when the
/// caller claimed every index itself); such a task must find only a
/// harmless "no indices left" state, never a dangling stack frame.
struct ForState {
  size_t n = 0;
  /// Valid only while the owning ParallelFor call is still blocked; tasks
  /// dereference it only after successfully claiming an index, which is
  /// impossible once the call returned.
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
};

/// Claims and runs indices, one per claim, until none remain.
void RunIndices(ForState* s) {
  for (;;) {
    const size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= s->n) return;
    (*s->fn)(i);
    if (s->done.fetch_add(1) + 1 == s->n) {
      std::lock_guard<std::mutex> lock(s->done_mu);
      s->done_cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Tiny loops run inline: no queue, no lock, no wake.
  if (n == 1 || threads_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;
  // The caller participates, so it and the helpers together are at most
  // one more than the pool's threads.
  const size_t helpers = std::min(n, threads_.size() + 1) - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) {
      tasks_.push([state] { RunIndices(state.get()); });
    }
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
  RunIndices(state.get());
  std::unique_lock<std::mutex> lock(state->done_mu);
  state->done_cv.wait(lock, [&] { return state->done.load() == state->n; });
}

}  // namespace dynopt
