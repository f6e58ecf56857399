#ifndef DYNOPT_COMMON_THREAD_POOL_H_
#define DYNOPT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dynopt {

/// Fixed-size worker pool used to execute the per-partition work of a
/// physical operator in parallel — the simulator's stand-in for the
/// node-parallel execution of a Hyracks job. Tasks are void closures;
/// ParallelFor blocks until every index has been processed.
class ThreadPool {
 public:
  /// `num_threads` == 0 selects hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n), distributing across workers, and
  /// waits for completion. min(n, num_threads + 1) - 1 helper tasks are
  /// queued, and they and the calling thread claim one index at a time, so
  /// a slow or descheduled index never holds back another: any free thread
  /// takes the next one. Because the caller claims indices too, nested and
  /// concurrent ParallelFor calls cannot deadlock: a caller can always
  /// drain its own loop even when every worker is busy.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dynopt

#endif  // DYNOPT_COMMON_THREAD_POOL_H_
