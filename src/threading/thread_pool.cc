#include "threading/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace bytebrain {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

std::future<void> ThreadPool::Schedule(std::function<void()> task) {
  // shared_ptr because std::function requires copyable callables and
  // packaged_task is move-only.
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  Submit([packaged] { (*packaged)(); });
  return future;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

// True while the current thread is executing a ParallelForShards task on
// the shared pool; nested parallel sections then run inline instead of
// deadlocking on a full queue.
thread_local bool tls_in_shared_pool_task = false;

// Process-wide lazily-built pool for shard work. Spawning std::threads
// per call costs tens of microseconds — per ingest batch, that is the
// difference between "parallel matching wins" and "parallel matching
// loses". Intentionally leaked: workers park on the condition variable
// until process exit, avoiding static-destruction-order hazards.
ThreadPool& SharedShardPool() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(2, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace

size_t SharedShardPoolWidth() { return SharedShardPool().num_threads(); }

size_t ShardParallelism(size_t count, size_t requested) {
  // Trivial budgets must not instantiate the shared pool: a
  // num_threads=1 topic (the 1-core reference config) should never
  // spawn hardware_concurrency workers it will never use.
  if (count <= 1 || requested <= 1) return 1;
  return std::min({requested, count, SharedShardPoolWidth() + 1});
}

void ParallelForShards(size_t count, size_t num_threads,
                       const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  num_threads = ShardParallelism(count, num_threads);
  if (num_threads == 1 || tls_in_shared_pool_task) {
    fn(0, count);
    return;
  }
  const size_t base = count / num_threads;
  const size_t extra = count % num_threads;

  // Shards 1..n-1 go to the pool; the caller runs shard 0 itself and
  // then waits on a per-call completion count (the pool's global Wait
  // would also wait on unrelated submitters).
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = num_threads - 1;
  ThreadPool& pool = SharedShardPool();
  size_t begin = base + (extra > 0 ? 1 : 0);  // shard 0's end
  const size_t first_end = begin;
  for (size_t t = 1; t < num_threads; ++t) {
    const size_t len = base + (t < extra ? 1 : 0);
    const size_t end = begin + len;
    pool.Submit([&fn, &done_mu, &done_cv, &remaining, begin, end] {
      tls_in_shared_pool_task = true;
      fn(begin, end);
      tls_in_shared_pool_task = false;
      // Notify while holding the lock: the caller's stack frame (and
      // with it done_cv itself) may be destroyed the instant the last
      // decrement becomes visible to its wait predicate.
      std::lock_guard<std::mutex> lock(done_mu);
      --remaining;
      done_cv.notify_one();
    });
    begin = end;
  }
  fn(0, first_end);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&remaining] { return remaining == 0; });
}

void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const size_t workers = ShardParallelism(count, num_threads);
  // Each worker claims the next unclaimed index, so a few expensive
  // items (one huge initial group) cannot leave the others idle behind
  // a fixed block. Callers that order items costliest first get
  // longest-processing-time-first scheduling.
  std::atomic<size_t> next{0};
  ParallelForShards(workers, workers, [&](size_t, size_t) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  });
}

}  // namespace bytebrain
