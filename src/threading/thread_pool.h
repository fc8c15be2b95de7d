// Threading substrate (paper §3 "Parallel").
//
// ByteBrain parallelizes (1) preprocessing across log shards, (2)
// hierarchical clustering across initial groups, and (3) online matching
// across processing queues. This module provides the pool and the
// ParallelFor primitive those phases build on. In production the paper
// limits parallelism to 1-5 cores per topic; callers pass the budget.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bytebrain {

/// Fixed-size pool executing submitted tasks FIFO. Destruction waits for
/// queued tasks to drain.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe from any thread, including pool threads.
  void Submit(std::function<void()> task);

  /// Like Submit, but returns a future that completes when the task
  /// finishes. An exception thrown by the task is captured and rethrown
  /// from future.get() instead of terminating the worker — background
  /// retraining submits through this so a throwing task can never take
  /// the process down. The future also lets callers track one submission
  /// without the pool-wide barrier of Wait().
  std::future<void> Schedule(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs fn(i) for i in [0, count) using up to `num_threads` threads
/// (budgeted by ShardParallelism). Indices are claimed dynamically, one
/// at a time in ascending order, from a shared counter, so skewed
/// per-item costs balance across workers. `num_threads <= 1` runs inline,
/// which is the "ByteBrain Sequential" configuration from the paper's
/// Fig. 6; a nested call from inside a shard task also runs inline.
void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t)>& fn);

/// Like ParallelFor but hands each worker a [begin, end) shard; use when
/// per-item dispatch overhead matters (e.g. per-log preprocessing).
/// Shards run on a shared process-wide pool (no thread spawn per call);
/// the calling thread executes the first shard itself. Nested calls from
/// inside a shard run inline. The effective parallelism is budgeted via
/// ShardParallelism, so over-asking (a topic configured for more threads
/// than the machine has) costs queueing overhead on nobody.
void ParallelForShards(size_t count, size_t num_threads,
                       const std::function<void(size_t, size_t)>& fn);

/// Worker threads in the shared shard pool (excludes the calling thread,
/// which always executes one shard itself).
size_t SharedShardPoolWidth();

/// Thread budget actually worth spending on `count` independent shard
/// tasks when the caller asks for `requested` threads: capped by the
/// task count and by SharedShardPoolWidth() + 1. Splitting work into
/// more fragments than the pool can run concurrently only adds dispatch
/// overhead — per-topic configs are written against "cores per topic"
/// (paper: 1-5), not against this machine, so the budget is clamped
/// here, in one place, rather than at every call site.
size_t ShardParallelism(size_t count, size_t requested);

}  // namespace bytebrain
