// Reusable worker pool for CPU-bound crypto work (SJ.Dec pairings dominate
// every server-side cost). One process-wide pool is created lazily and
// shared by all queries of a series, replacing the per-call std::thread
// spawning the server used to pay on every DecryptRows invocation.
//
// Concurrency contract:
//  - Submit and ParallelFor may be called from any thread, including from
//    a task already running on the pool. Nested ParallelFor cannot
//    deadlock: a waiting caller drains queued tasks instead of parking
//    (see ParallelFor), so the RequestScheduler may dispatch whole
//    requests as pool tasks whose execution itself fans out on the pool.
//  - At least one background worker always exists, so Submit-only users
//    (fire-and-forget dispatch) make progress even on a 1-CPU host where
//    hardware_concurrency() - 1 would be zero.
//  - Shutdown stops the pool: queued tasks drain, workers join, and any
//    later Submit is a checked error (returns false, task not enqueued).
#ifndef SJOIN_UTIL_THREAD_POOL_H_
#define SJOIN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sjoin {

class ThreadPool {
 public:
  /// `num_workers` background threads (<= 0: hardware_concurrency - 1, so
  /// that worker threads plus the submitting thread saturate the machine;
  /// never fewer than one worker, so Submit-only callers make progress on
  /// single-CPU hosts).
  explicit ThreadPool(int num_workers = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide shared pool, created on first use.
  static ThreadPool& Shared();

  /// Maximum useful parallelism: background workers + the calling thread.
  int concurrency() const { return static_cast<int>(workers_.size()) + 1; }

  /// Enqueues a task for any worker to run. Returns false -- and does NOT
  /// enqueue -- once the pool is stopped (Shutdown or destruction in
  /// progress); enqueue-after-stop used to silently strand the task in a
  /// queue nobody drains.
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Stops the pool: already-queued tasks finish, workers join, and every
  /// later Submit fails. Idempotent. The destructor calls it; tests call
  /// it directly to pin down the enqueue-after-stop contract.
  void Shutdown();

  /// True once Shutdown began; Submit will refuse.
  bool stopped() const;

  /// Executors ParallelFor(n, parallelism, ...) runs on: `parallelism`
  /// (<= 0: concurrency()) clamped to both concurrency() and n, so small
  /// batches never pay for idle executors.
  size_t Width(size_t n, int parallelism) const;

  /// Runs fn(0..n-1) on Width(n, parallelism) concurrent executors, the
  /// calling thread among them. Blocks until every index has run. Safe to
  /// call from inside a pool task (the wait loop steals queued work), and
  /// degrades to inline execution on a stopped pool.
  void ParallelFor(size_t n, int parallelism,
                   const std::function<void(size_t)>& fn);

  /// Shared().ParallelFor(n, parallelism, fn), except that parallelism == 1
  /// runs fn(0..n-1) inline and never touches (or creates) the shared pool.
  /// The batched crypto kernels take their num_threads this way.
  static void SharedFor(size_t n, int parallelism,
                        const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  /// Pops and runs one queued task if any; used by waiting ParallelFor
  /// callers so nested invocations cannot deadlock the pool.
  bool TryRunOneTask();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sjoin

#endif  // SJOIN_UTIL_THREAD_POOL_H_
