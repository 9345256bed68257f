// Fixed-size worker pool backing the serving layer (serve/).  Deliberately
// small: one mutex, a global deque plus one local deque per worker, and an
// idle barrier -- the MTTKRP kernels themselves are the expensive part, so
// queue overhead is noise.
//
// Affinity (DESIGN.md §8): submit(task, affinity) parks the task on worker
// (affinity % size())'s LOCAL queue.  The serving layer pins shard s's
// work to worker s % W so a shard's plan/delta state stays cache-hot
// across a batch.  Affinity is a HINT, not an assignment: an idle hinted
// worker always runs its own local tasks first, but once it is busy
// mid-task any other worker may steal from its queue (steal fallback), so
// a slow shard never serializes the whole pool.  steal_count() counts
// exactly those fallbacks.
//
// Tasks may submit further tasks (the service's async format upgrade is
// enqueued from inside a request handler); wait_idle() accounts for that
// by waiting until every queue is empty AND no worker is mid-task.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_annotations.hpp"

namespace bcsf {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 -> hardware_concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains nothing: pending tasks still in the queues are executed
  /// before the workers join (a service being destroyed must not drop
  /// accepted requests on the floor).  Equivalent to shutdown().
  ~ThreadPool();

  /// Explicit graceful stop, callable before destruction (the serving
  /// layer's drain hook, DESIGN.md §9): refuses new submissions
  /// (try_submit returns false, submit throws), executes every ACCEPTED
  /// task, then joins the workers.  Idempotent and safe to race from
  /// multiple threads; must not be called from a worker of this pool
  /// (a task cannot join its own thread).
  void shutdown();

  /// True once shutdown began (destructor or shutdown()): submissions
  /// are being refused and queued work is draining.
  bool stopping() const;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task.  Throws if called after shutdown
  /// began (i.e. from a task racing the destructor -- a caller bug).
  void submit(std::function<void()> task);
  /// Same, with an affinity hint: the task goes to worker
  /// (affinity % size())'s local queue and runs there whenever that
  /// worker is free; busy hinted workers expose it to stealing.
  void submit(std::function<void()> task, std::size_t affinity);

  /// Like submit(), but returns false instead of throwing once shutdown
  /// began -- for best-effort background work (e.g. a format upgrade)
  /// enqueued from inside a task that may be draining at destruction.
  bool try_submit(std::function<void()> task);
  bool try_submit(std::function<void()> task, std::size_t affinity);

  /// Enqueues a task and returns a future for its result; exceptions
  /// thrown by the task surface through the future.
  template <typename F>
  auto async(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    submit([task] { (*task)(); });
    return result;
  }

  /// Blocks until every queue is empty and every worker is idle.  Tasks
  /// submitted by other threads while waiting extend the wait.
  void wait_idle();

  /// Tasks accepted but not yet started, over all queues (observability).
  std::size_t queue_depth() const;
  /// Affinity-hinted tasks that were drained by a DIFFERENT worker than
  /// the hinted one (the steal fallback firing).  Monotone.
  std::uint64_t steal_count() const;
  /// Index of the calling thread within THIS pool's workers, -1 when the
  /// caller is not one of them.  Lets tests pin down where an
  /// affinity-hinted task actually ran.
  int current_worker() const;
  /// True when the calling thread is a worker of ANY ThreadPool.  Code
  /// with its own intra-call parallelism (the native kernel walks) stays
  /// serial there, so a busy pool is not oversubscribed.
  static bool on_worker_thread();

 private:
  void worker_loop(std::size_t index);
  // Queue accounting; all require mutex_ held (compiler-enforced).
  std::size_t total_queued() const BCSF_REQUIRES(mutex_);
  bool runnable(std::size_t index) const BCSF_REQUIRES(mutex_);
  std::function<void()> take(std::size_t index) BCSF_REQUIRES(mutex_);
  void enqueue(std::function<void()> task, std::size_t queue)
      BCSF_REQUIRES(mutex_);

  mutable Mutex mutex_;
  CondVar work_cv_;  // signals workers: task ready / stop
  CondVar idle_cv_;  // signals wait_idle: maybe drained
  /// Un-hinted submissions.
  std::deque<std::function<void()>> global_ BCSF_GUARDED_BY(mutex_);
  /// One local (affinity-hinted) queue per worker.
  std::vector<std::deque<std::function<void()>>> local_
      BCSF_GUARDED_BY(mutex_);
  /// busy_[i] != 0: worker i is mid-task (its local queue is stealable).
  std::vector<char> busy_ BCSF_GUARDED_BY(mutex_);
  std::uint64_t steals_ BCSF_GUARDED_BY(mutex_) = 0;
  std::size_t active_ BCSF_GUARDED_BY(mutex_) = 0;  // tasks executing now
  bool stop_ BCSF_GUARDED_BY(mutex_) = false;
  Mutex join_mutex_;  // serializes concurrent shutdown() joiners
  /// Written only by the constructor; shutdown() joins the threads under
  /// join_mutex_ but never mutates the vector itself, so size() reads it
  /// lock-free.
  std::vector<std::thread> workers_;
};

/// Runs every task in `tasks` and returns once ALL have finished, the
/// first captured task exception rethrown afterwards (remaining tasks
/// still run -- partial results must not be torn down under a sibling).
///
/// The CALLING thread always participates: helper tasks are offered to
/// `pool` (best-effort via try_submit) but the caller drains the shared
/// task list itself until it is empty, so progress never depends on a
/// pool worker being free.  That makes this safe to call FROM INSIDE a
/// pool task -- the nested-fan-out case of the sharded plan layer
/// (DESIGN.md §8), where a one-worker pool would otherwise deadlock on
/// its own children.  `pool` may be null (plain sequential execution).
void run_tasks(ThreadPool* pool, std::vector<std::function<void()>> tasks);

}  // namespace bcsf
