#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/error.hpp"

namespace bcsf {

namespace {

constexpr std::size_t kGlobalQueue = static_cast<std::size_t>(-1);

// Which pool (if any) the current thread is a worker of; lets nested code
// and tests ask "where am I running?" without threading ids around.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local int tl_worker = -1;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  local_.resize(threads);
  busy_.assign(threads, 0);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    MutexLock lock(mutex_);
    // Accepted tasks still run: workers only exit once every queue is
    // empty, and under stop_ any worker may drain any local queue.
    stop_ = true;
  }
  work_cv_.notify_all();
  // Concurrent shutdown() callers both reach here; joins are serialized
  // and re-joining an already-joined worker is skipped.
  MutexLock join_lock(join_mutex_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool ThreadPool::stopping() const {
  MutexLock lock(mutex_);
  return stop_;
}

std::size_t ThreadPool::total_queued() const {
  std::size_t total = global_.size();
  for (const auto& queue : local_) total += queue.size();
  return total;
}

void ThreadPool::enqueue(std::function<void()> task, std::size_t queue) {
  if (queue == kGlobalQueue) {
    global_.push_back(std::move(task));
  } else {
    local_[queue % local_.size()].push_back(std::move(task));
  }
}

void ThreadPool::submit(std::function<void()> task) {
  BCSF_CHECK(static_cast<bool>(task), "ThreadPool: empty task");
  {
    MutexLock lock(mutex_);
    BCSF_CHECK(!stop_, "ThreadPool: submit after shutdown");
    enqueue(std::move(task), kGlobalQueue);
  }
  // notify_all, not notify_one: a hinted task must reach ITS worker even
  // when another (non-eligible) worker wakes first and goes back to sleep.
  work_cv_.notify_all();
}

void ThreadPool::submit(std::function<void()> task, std::size_t affinity) {
  BCSF_CHECK(static_cast<bool>(task), "ThreadPool: empty task");
  {
    MutexLock lock(mutex_);
    BCSF_CHECK(!stop_, "ThreadPool: submit after shutdown");
    enqueue(std::move(task), affinity);
  }
  work_cv_.notify_all();
}

bool ThreadPool::try_submit(std::function<void()> task) {
  BCSF_CHECK(static_cast<bool>(task), "ThreadPool: empty task");
  {
    MutexLock lock(mutex_);
    if (stop_) return false;
    enqueue(std::move(task), kGlobalQueue);
  }
  work_cv_.notify_all();
  return true;
}

bool ThreadPool::try_submit(std::function<void()> task, std::size_t affinity) {
  BCSF_CHECK(static_cast<bool>(task), "ThreadPool: empty task");
  {
    MutexLock lock(mutex_);
    if (stop_) return false;
    enqueue(std::move(task), affinity);
  }
  work_cv_.notify_all();
  return true;
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  // Explicit predicate loop, not a wait lambda: the lambda would be
  // analyzed as a separate function without the mutex_ capability
  // (thread_annotations.hpp header comment).
  while (total_queued() != 0 || active_ != 0) idle_cv_.wait(lock);
}

std::size_t ThreadPool::queue_depth() const {
  MutexLock lock(mutex_);
  return total_queued();
}

std::uint64_t ThreadPool::steal_count() const {
  MutexLock lock(mutex_);
  return steals_;
}

int ThreadPool::current_worker() const {
  return tl_pool == this ? tl_worker : -1;
}

bool ThreadPool::on_worker_thread() { return tl_pool != nullptr; }

bool ThreadPool::runnable(std::size_t index) const {
  if (!local_[index].empty() || !global_.empty()) return true;
  for (std::size_t j = 0; j < local_.size(); ++j) {
    // A peer's hinted tasks are stealable only while the peer is BUSY
    // mid-task (the affinity contract: an idle hinted worker gets first
    // claim on its own queue) -- except at shutdown, when everything
    // accepted must drain no matter whose queue it sits in.
    if (j != index && !local_[j].empty() && (busy_[j] || stop_)) return true;
  }
  return false;
}

std::function<void()> ThreadPool::take(std::size_t index) {
  std::function<void()> task;
  if (!local_[index].empty()) {
    task = std::move(local_[index].front());
    local_[index].pop_front();
    return task;
  }
  if (!global_.empty()) {
    task = std::move(global_.front());
    global_.pop_front();
    return task;
  }
  for (std::size_t j = 0; j < local_.size(); ++j) {
    if (j != index && !local_[j].empty() && (busy_[j] || stop_)) {
      task = std::move(local_[j].front());
      local_[j].pop_front();
      ++steals_;
      return task;
    }
  }
  return task;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_worker = static_cast<int>(index);
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && !runnable(index)) work_cv_.wait(lock);
    std::function<void()> task = take(index);
    if (!task) {
      if (stop_ && total_queued() == 0) return;
      continue;  // woken by stop_ with work parked elsewhere; re-check
    }
    busy_[index] = 1;
    ++active_;
    // Tasks still queued (possibly in OUR local queue, which just became
    // stealable) need a waiting peer to re-evaluate its predicate.
    if (total_queued() > 0) work_cv_.notify_all();
    lock.unlock();
    task();  // task exceptions are the submitter's problem via async()
    task = nullptr;
    lock.lock();
    busy_[index] = 0;
    --active_;
    if (total_queued() == 0 && active_ == 0) idle_cv_.notify_all();
  }
}

void run_tasks(ThreadPool* pool, std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks.front()();
    return;
  }

  // Shared by the caller and every helper; shared_ptr keeps it alive for
  // helpers that wake up after the caller has already returned (they see
  // an empty list and exit immediately).
  struct Shared {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};
    Mutex m;
    CondVar done_cv;
    std::size_t done BCSF_GUARDED_BY(m) = 0;
    std::exception_ptr first_error BCSF_GUARDED_BY(m);
  };
  auto shared = std::make_shared<Shared>();
  shared->tasks = std::move(tasks);
  const std::size_t n = shared->tasks.size();

  auto drain = [shared, n] {
    for (;;) {
      const std::size_t i =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr error;
      try {
        shared->tasks[i]();
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(shared->m);
      if (error && !shared->first_error) shared->first_error = error;
      if (++shared->done == n) shared->done_cv.notify_all();
    }
  };

  if (pool != nullptr) {
    // One helper per remaining task, capped at the pool width; refusals
    // (pool shutting down) are fine -- the caller drains regardless.
    const std::size_t helpers = std::min(n - 1, pool->size());
    for (std::size_t h = 0; h < helpers; ++h) {
      if (!pool->try_submit(drain)) break;
    }
  }
  drain();

  MutexLock lock(shared->m);
  while (shared->done != n) shared->done_cv.wait(lock);
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace bcsf
