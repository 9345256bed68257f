// Direct unit tests for util/thread_pool.hpp: submit/try_submit under a
// shutdown race, task-exception propagation, wait_idle semantics, and
// the caller-participating run_tasks fan-out the sharded plan layer
// (DESIGN.md §8) builds on.  The pool serves two critical clients now --
// request serving AND parallel shard builds -- so its contract gets its
// own suite instead of being exercised only through the service.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bcsf {
namespace {

TEST(ThreadPool, RunsEveryAcceptedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ZeroDefaultsToHardwareAndAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  auto result = pool.async([] { return 41 + 1; });
  EXPECT_EQ(result.get(), 42);
}

TEST(ThreadPool, AsyncPropagatesTaskException) {
  ThreadPool pool(2);
  auto result = pool.async([]() -> int {
    throw std::runtime_error("task boom");
  });
  EXPECT_THROW(result.get(), std::runtime_error);
  // The worker survives the throwing task and keeps serving.
  EXPECT_EQ(pool.async([] { return 7; }).get(), 7);
}

TEST(ThreadPool, TasksMaySubmitTasksAndWaitIdleCoversThem) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&pool, &ran] {
    ran.fetch_add(1);
    pool.submit([&pool, &ran] {
      ran.fetch_add(1);
      pool.submit([&ran] { ran.fetch_add(1); });
    });
  });
  pool.wait_idle();  // must count queued AND mid-task work
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), Error);
  EXPECT_THROW(pool.try_submit(std::function<void()>{}), Error);
}

// The shutdown race of the serving layer's background upgrades: a task
// still RUNNING while the destructor drains must see try_submit refuse
// (returning false) and submit throw -- never a crash, never a silently
// dropped-but-accepted task.
TEST(ThreadPool, SubmitDuringShutdownThrowsAndTrySubmitRefuses) {
  std::promise<void> entered;
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  std::atomic<bool> submit_threw{false};

  auto pool = std::make_unique<ThreadPool>(1);
  pool->submit([&, raw = pool.get()] {
    entered.set_value();
    // Keep offering background work until shutdown begins -- the
    // service's upgrade-task pattern.  Every ACCEPTED task must still
    // run: the destructor drains the queue before joining.
    while (raw->try_submit([&ran] { ran.fetch_add(1); })) {
      accepted.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // try_submit refused, so shutdown has begun: submit must throw.
    try {
      raw->submit([&ran] { ran.fetch_add(1); });
    } catch (const Error&) {
      submit_threw = true;
    }
  });

  entered.get_future().wait();
  pool.reset();  // sets the stop flag, drains accepted tasks, joins
  EXPECT_TRUE(submit_threw.load()) << "submit must throw at shutdown";
  EXPECT_EQ(ran.load(), accepted.load())
      << "accepted tasks may not be dropped by shutdown";
}

// The explicit drain hook the serving layer's shutdown path uses
// (DESIGN.md §9): shutdown() before destruction, observable via
// stopping(), draining every accepted task exactly like the destructor.
TEST(ThreadPool, ShutdownIsIdempotentAndObservable) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.stopping());
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  pool.shutdown();
  EXPECT_TRUE(pool.stopping());
  EXPECT_EQ(ran.load(), 32) << "shutdown() must drain accepted tasks";
  EXPECT_FALSE(pool.try_submit([] {}));
  EXPECT_THROW(pool.submit([] {}), Error);
  pool.shutdown();  // idempotent; the destructor will be the third call
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ConcurrentShutdownCallsAreSafe) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&pool] { pool.shutdown(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_TRUE(pool.stopping());
  EXPECT_EQ(ran.load(), 32) << "racing shutdowns may not drop tasks";
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
  }  // destructor: accepted tasks may not be dropped
  EXPECT_EQ(ran.load(), 16);
}

// ---------------------------------------------------------------------------
// Affinity hints, steal fallback, and the observability counters (§8).
// ---------------------------------------------------------------------------

TEST(ThreadPool, AffinityRunsOnHintedWorkerWhenFree) {
  // One hinted task at a time against an otherwise idle pool: the hinted
  // worker is the ONLY one allowed to drain its own local queue while it
  // is not busy, so the placement is deterministic -- and no steal fires.
  ThreadPool pool(4);
  EXPECT_EQ(pool.current_worker(), -1) << "callers outside the pool";
  for (std::size_t i = 0; i < 8; ++i) {
    int ran_on = -2;
    pool.submit([&pool, &ran_on] { ran_on = pool.current_worker(); },
                /*affinity=*/i);
    pool.wait_idle();
    EXPECT_EQ(ran_on, static_cast<int>(i % pool.size()))
        << "affinity " << i << " must land on worker " << i % pool.size();
  }
  EXPECT_EQ(pool.steal_count(), 0u)
      << "idle hinted workers leave nothing to steal";
}

TEST(ThreadPool, BusyHintedWorkerExposesTasksToStealing) {
  // Pin worker 0 inside a long task, then hint more work at it: the
  // tasks must NOT serialize behind the stuck worker -- its peer steals
  // them, and every such fallback shows up in steal_count().
  constexpr int kTasks = 6;
  ThreadPool pool(2);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.submit([&entered, gate] {
    entered.set_value();
    gate.wait();
  }, /*affinity=*/0);
  entered.get_future().wait();  // worker 0 is now mid-task (stealable)

  std::atomic<int> ran{0};
  std::vector<int> ran_on(kTasks, -2);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&pool, &ran, &ran_on, i] {
      ran_on[static_cast<std::size_t>(i)] = pool.current_worker();
      ran.fetch_add(1);
    }, /*affinity=*/0);
  }
  // All hinted tasks complete WHILE worker 0 is still blocked.
  while (ran.load() < kTasks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  pool.wait_idle();

  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], 1)
        << "task " << i << " had to be stolen by worker 1";
  }
  EXPECT_GE(pool.steal_count(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadPool, OnWorkerThreadIsTrueOnlyInsideTasks) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  EXPECT_TRUE(pool.async([] { return ThreadPool::on_worker_thread(); }).get());
  // Still false on the submitting thread once the pool exists.
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, QueueDepthTracksPendingTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.submit([&entered, gate] {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();

  // The gate task is RUNNING (not queued); these three are pending.
  for (int i = 0; i < 3; ++i) pool.submit([] {});
  EXPECT_EQ(pool.queue_depth(), 3u);
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// run_tasks: the caller-participating fan-out primitive.
// ---------------------------------------------------------------------------

TEST(RunTasks, RunsAllTasksWithAndWithoutPool) {
  for (const bool with_pool : {false, true}) {
    SCOPED_TRACE(with_pool);
    std::optional<ThreadPool> pool;
    if (with_pool) pool.emplace(3);
    std::vector<int> hits(17, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i] { hits[i] += 1; });
    }
    run_tasks(with_pool ? &*pool : nullptr, std::move(tasks));
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "task " << i;
    }
  }
}

TEST(RunTasks, NestsInsideSingleWorkerPoolWithoutDeadlock) {
  // A pool task fanning out on its own pool: with one worker no helper
  // can ever run, so the calling task must drain everything itself.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  auto done = pool.async([&pool, &ran] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([&ran] { ran.fetch_add(1); });
    }
    run_tasks(&pool, std::move(tasks));
    return ran.load();
  });
  EXPECT_EQ(done.get(), 8);
}

TEST(RunTasks, PropagatesFirstExceptionAfterAllTasksRan) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 2) throw std::runtime_error("shard boom");
    });
  }
  EXPECT_THROW(run_tasks(&pool, std::move(tasks)), std::runtime_error);
  // Siblings are NOT cancelled: partial state must stay safe to read.
  EXPECT_EQ(ran.load(), 6);
}

TEST(RunTasks, EmptyAndSingleTaskFastPaths) {
  run_tasks(nullptr, {});
  int hits = 0;
  std::vector<std::function<void()>> one;
  one.push_back([&hits] { ++hits; });
  run_tasks(nullptr, std::move(one));
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace bcsf
