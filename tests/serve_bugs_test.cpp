// Regression tests for the PR-7 serving-path bug sweep (DESIGN.md §8):
//
//   * merge-path scratch leases must return to the arena when a shard's
//     execute throws (they used to leak: the explicit release lived only
//     on the success path);
//   * submit/dispatch racing a pool shutdown must resolve EVERY future
//     with a value or a bcsf::Error -- never broken_promise (dispatch
//     used to call the throwing submit mid-loop, stranding the promises
//     of partially dispatched batches);
//   * fanout_ms must measure the fan-out (first shard task start to last
//     shard finish), not pool queue wait ahead of the batch (it used to
//     be dispatch-relative, so a busy pool inflated it);
//   * a one-shard tensor's batch must still spread across the pool
//     (each request is its own group), not run serially in one task.
//
// All but the second test need misbehaving plans, so the file registers
// three test-only formats: one that throws in execute() on shards
// containing mode-0 slice 0, one that sleeps in execute(), and one
// whose execute() waits until kLatchCount executions are in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/format_registry.hpp"
#include "core/tensor_op_plan.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

/// Delegates everything to an inner cpu-coo plan, with a hook run before
/// each execution -- the hook is where a test format misbehaves.
class HookedPlan : public TensorOpPlan {
 public:
  using Hook = void (*)(bool flagged);

  HookedPlan(std::string format, PlanPtr inner, Hook hook, bool flagged)
      : TensorOpPlan(format, format, inner->mode()),
        inner_(std::move(inner)),
        hook_(hook),
        flagged_(flagged) {}

  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  bool is_gpu() const override { return inner_->is_gpu(); }
  PlanRunResult run(const std::vector<DenseMatrix>& factors) const override {
    hook_(flagged_);
    return inner_->run(factors);
  }
  OpResult execute(const OpRequest& request) const override {
    hook_(flagged_);
    return inner_->execute(request);
  }

 private:
  PlanPtr inner_;
  Hook hook_;
  bool flagged_;  ///< shard-specific condition computed at build time
};

bool touches_slice_zero(const SparseTensor& t) {
  for (offset_t z = 0; z < t.nnz(); ++z) {
    if (t.coord(0, z) == 0) return true;
  }
  return false;
}

FormatRegistry::Factory hooked_factory(const char* name, HookedPlan::Hook hook) {
  return [name, hook](const SparseTensor& t, index_t mode,
                      const PlanOptions& opts) -> PlanPtr {
    return std::make_unique<HookedPlan>(
        name, FormatRegistry::instance().create("cpu-coo", t, mode, opts),
        hook, touches_slice_zero(t));
  };
}

/// Throws on shards whose sub-tensor contains mode-0 slice 0 -- in a
/// K-way partition exactly shard 0, so the sibling shards succeed and
/// their leases are the ones at stake.
FormatRegistrar flaky_registrar{{
    "flaky-serve-test", "FlakyServeTest",
    "test-only: execute() throws on shards containing mode-0 slice 0",
    PlanKind::kCpu, true,
    hooked_factory("flaky-serve-test", [](bool flagged) {
      if (flagged) throw Error("flaky-serve-test: poisoned shard");
    })}};

constexpr int kSleepMs = 120;

/// Sleeps in execute() -- a controllable stand-in for a slow shard kernel.
FormatRegistrar sleepy_registrar{{
    "sleepy-serve-test", "SleepyServeTest",
    "test-only: execute() sleeps to occupy the worker pool",
    PlanKind::kCpu, true,
    hooked_factory("sleepy-serve-test", [](bool) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSleepMs));
    })}};

// ---------------------------------------------------------------------------
// Bug 1: merge-path leases must survive a failing sibling shard.
// ---------------------------------------------------------------------------

TEST(ServeBugs, MergePathLeasesReturnWhenAShardThrows) {
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 4;
  opts.upgrade_format = "flaky-serve-test";
  opts.upgrade_threshold = 1;
  opts.compact_threshold = 0;
  TensorOpService service(opts);

  const std::vector<index_t> dims{64, 32, 16};
  SparseTensor x = serve_test::exact_tensor(dims, 4000, 11);
  const index_t origin[] = {0, 0, 0};
  x.push_back(origin, 1.0F);  // guarantee shard 0 is poisoned
  service.register_tensor("t", share_tensor(std::move(x)));
  const auto factors = serve_test::exact_factors(dims, 8, 12);

  // Prime mode 1 (the merge path: mode != partition mode): the first
  // query serves COO and crosses the threshold, launching the flaky
  // upgrade on every shard.
  ServeResponse primed = service.submit({"t", 1, factors}).get();
  EXPECT_EQ(primed.reduce_path, ReducePath::kMerge);
  service.wait_idle();
  ASSERT_TRUE(service.upgraded("t", 1));
  const std::size_t pooled = service.scratch_pooled();
  EXPECT_GE(pooled, 4u) << "the priming query's partials must be pooled";

  // Shard 0 now throws in execute(); shards 1-3 still take merge-path
  // leases.  Every failing request must hand those leases back -- the
  // leak left the arena empty and steady-state traffic reallocating.
  for (int i = 0; i < 5; ++i) {
    auto future = service.submit({"t", 1, factors});
    EXPECT_THROW(future.get(), Error);
    service.wait_idle();
    EXPECT_EQ(service.scratch_pooled(), pooled)
        << "iteration " << i << " leaked merge-path leases";
  }

  // The failure is per (shard, mode): a mode still serving COO answers.
  const ServeResponse ok = service.submit({"t", 2, factors}).get();
  EXPECT_EQ(ok.op, OpKind::kMttkrp);
  EXPECT_FALSE(ok.upgraded);
}

// ---------------------------------------------------------------------------
// Bug 2: dispatch racing shutdown must never strand a future.
// ---------------------------------------------------------------------------

TEST(ServeBugs, SubmitRacingShutdownResolvesEveryFuture) {
  // Alternate shard counts so both the one-task-per-request groups of a
  // one-shard tensor and the K-task sharded groups race the drain.
  for (const unsigned shards : {1u, 2u, 1u, 2u}) {
    SCOPED_TRACE(shards);
    ServeOptions opts;
    opts.workers = 2;
    opts.shards = shards;
    opts.upgrade_format = "coo";
    opts.compact_threshold = 0;
    TensorOpService service(opts);

    const std::vector<index_t> dims{32, 24, 16};
    service.register_tensor(
        "t", share_tensor(serve_test::exact_tensor(dims, 1500, 21)));
    const auto factors = serve_test::exact_factors(dims, 4, 22);

    constexpr int kThreads = 3;
    constexpr int kBatches = 12;
    std::vector<std::vector<std::future<ServeResponse>>> futures(kThreads);
    serve_test::run_threads(kThreads, [&](int ti) {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<ServeRequest> batch;
        for (int r = 0; r < 4; ++r) {
          batch.emplace_back("t", static_cast<index_t>(r % dims.size()),
                             factors);
        }
        auto got = service.submit_batch(std::move(batch));
        for (auto& f : got) futures[ti].push_back(std::move(f));
        if (ti == 0 && b == kBatches / 2) {
          service.shutdown();  // mid-stream drain, racing the submitters
        }
      }
    });

    int resolved = 0;
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        try {
          const ServeResponse response = f.get();
          EXPECT_GT(response.sequence, 0u);
          ++resolved;
        } catch (const Error&) {
          ++resolved;  // a real serve error is an acceptable resolution
        } catch (const std::future_error& e) {
          ADD_FAILURE() << "stranded future (broken promise): " << e.what();
        }
      }
    }
    EXPECT_EQ(resolved, kThreads * kBatches * 4);
  }
}

// A malformed factor list must be refused synchronously, before any shard
// task sizes its output from factors->front(): at K = 1 every mode takes
// the disjoint path, and tensord dispatches on the connection thread.
TEST(ServeBugs, WrongFactorCountThrowsBeforeDispatch) {
  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    ServeOptions opts;
    opts.workers = 2;
    opts.shards = shards;
    opts.upgrade_format = "coo";
    opts.compact_threshold = 0;
    TensorOpService service(opts);

    const std::vector<index_t> dims{32, 24, 16};
    service.register_tensor(
        "t", share_tensor(serve_test::exact_tensor(dims, 1500, 51)));
    const auto factors = serve_test::exact_factors(dims, 4, 52);
    const auto empty = std::make_shared<const std::vector<DenseMatrix>>();
    const auto short_list = std::make_shared<const std::vector<DenseMatrix>>(
        factors->begin(), factors->end() - 1);

    for (const OpKind op : {OpKind::kMttkrp, OpKind::kTtv, OpKind::kFit}) {
      for (index_t mode = 0; mode < dims.size(); ++mode) {
        EXPECT_THROW(service.submit({"t", mode, empty, op}), Error);
        EXPECT_THROW(service.submit({"t", mode, short_list, op}), Error);
      }
    }
    // A bad request anywhere in a batch refuses the whole batch.
    std::vector<ServeRequest> batch;
    batch.emplace_back("t", 0, factors);
    batch.emplace_back("t", 1, empty);
    EXPECT_THROW(service.submit_batch(std::move(batch)), Error);
    EXPECT_EQ(service.call_count("t"), 0u);

    // The service still answers a well-formed request afterwards.
    const ServeResponse ok = service.submit({"t", 0, factors}).get();
    EXPECT_EQ(ok.output.rows(), dims[0]);
    EXPECT_EQ(service.call_count("t"), 1u);
  }
}

// ---------------------------------------------------------------------------
// Bug 3: fanout_ms excludes pool queue wait ahead of the batch.
// ---------------------------------------------------------------------------

TEST(ServeBugs, FanoutExcludesQueueWaitAheadOfTheBatch) {
  ServeOptions opts;
  opts.workers = 1;  // strict FIFO: the gate group runs before "fast"
  opts.shards = 2;
  opts.upgrade_format = "sleepy-serve-test";
  opts.upgrade_threshold = 1;
  opts.compact_threshold = 0;
  TensorOpService service(opts);

  const std::vector<index_t> dims{32, 24, 16};
  service.register_tensor(
      "gate", share_tensor(serve_test::exact_tensor(dims, 1200, 31)));
  service.register_tensor(
      "fast", share_tensor(serve_test::exact_tensor(dims, 1200, 32)));
  const auto factors = serve_test::exact_factors(dims, 4, 33);

  // Land the sleepy upgrade on "gate" only; "fast" keeps serving COO.
  service.submit({"gate", 1, factors}).get();
  service.wait_idle();
  ASSERT_TRUE(service.upgraded("gate", 1));

  // One batch, gate first: its two shard sweeps sleep kSleepMs each on
  // the single worker before the fast request's sweeps even START.
  std::vector<ServeRequest> batch;
  batch.emplace_back("gate", 1, factors);
  batch.emplace_back("fast", 1, factors);
  const auto t0 = std::chrono::steady_clock::now();
  auto futures = service.submit_batch(std::move(batch));
  const ServeResponse fast = futures[1].get();
  const double fast_latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const ServeResponse gate = futures[0].get();

  // The fast request WAITED behind ~2 * kSleepMs of gate work...
  EXPECT_GE(fast_latency_ms, 2 * kSleepMs * 0.8);
  // ...but its fan-out is just its own two cheap COO sweeps.  The old
  // dispatch-relative stamp billed the whole queue wait here.
  EXPECT_LT(fast.fanout_ms, kSleepMs * 0.8)
      << "fanout_ms is billing pool queue wait again";
  // The gate request's fan-out legitimately spans its two sleeps.
  EXPECT_GE(gate.fanout_ms, 2 * kSleepMs * 0.8);
}

// ---------------------------------------------------------------------------
// Bug 4: a one-shard batch must not serialize on one worker.
// ---------------------------------------------------------------------------

constexpr int kLatchCount = 4;

/// The latch format's shared state.  Armed only for the batch under
/// test, so the priming request and the upgrade build pass straight
/// through.
struct LatchState {
  std::mutex m;
  std::condition_variable cv;
  bool armed = false;
  int arrived = 0;
  bool timed_out = false;
};
LatchState latch;

/// Waits in execute() until kLatchCount executions are in flight at
/// once.  Serialized executions can never all arrive: the first waits
/// out the timeout and the rest pass through, so the failure is
/// deterministic rather than a timing threshold.
FormatRegistrar latch_registrar{{
    "latch-serve-test", "LatchServeTest",
    "test-only: execute() waits until kLatchCount executions are in flight",
    PlanKind::kCpu, true,
    hooked_factory("latch-serve-test", [](bool) {
      std::unique_lock<std::mutex> lock(latch.m);
      if (!latch.armed || latch.timed_out) return;
      ++latch.arrived;
      latch.cv.notify_all();
      if (!latch.cv.wait_for(lock, std::chrono::seconds(5), [] {
            return latch.arrived >= kLatchCount;
          })) {
        latch.timed_out = true;
      }
    })}};

TEST(ServeBugs, OneShardBatchRunsItsRequestsInParallel) {
  ServeOptions opts;
  opts.workers = kLatchCount;
  opts.shards = 1;
  opts.upgrade_format = "latch-serve-test";
  opts.upgrade_threshold = 1;
  opts.compact_threshold = 0;
  TensorOpService service(opts);

  const std::vector<index_t> dims{32, 24, 16};
  service.register_tensor(
      "t", share_tensor(serve_test::exact_tensor(dims, 1200, 41)));
  const auto factors = serve_test::exact_factors(dims, 4, 42);

  // The priming request serves COO and lands the latch plan.
  const ServeResponse primed = service.submit({"t", 0, factors}).get();
  service.wait_idle();
  ASSERT_TRUE(service.upgraded("t", 0));

  {
    std::lock_guard<std::mutex> lock(latch.m);
    latch.armed = true;
    latch.arrived = 0;
    latch.timed_out = false;
  }
  auto futures = service.submit_batch(
      std::vector<ServeRequest>(kLatchCount, ServeRequest{"t", 0, factors}));
  for (auto& future : futures) {
    const ServeResponse r = future.get();
    EXPECT_TRUE(r.upgraded);
    EXPECT_EQ(r.shards, 1u);
    EXPECT_EQ(r.reduce_path, ReducePath::kSingle);
    EXPECT_TRUE(serve_test::bitwise_equal(primed.output, r.output));
  }

  std::lock_guard<std::mutex> lock(latch.m);
  EXPECT_FALSE(latch.timed_out) << "the one-shard batch ran serially";
  EXPECT_EQ(latch.arrived, kLatchCount);
  latch.armed = false;
}

}  // namespace
}  // namespace bcsf
