// Eviction-oracle tests for the service-wide storage budget (DESIGN.md
// §10): heat-ordered eviction must be PREDICTABLE BY HAND, eviction must
// never change an answer (the evicted tenant falls back to the COO plan,
// which with exact-grid inputs is bitwise the structured answer), a
// re-heated tenant re-earns the threshold and rebuilds exactly once
// (single-flight), and the background reclaimer force-compacts delta
// chunks when they -- not plans -- carry the weight.
//
// The oracle works because heat is keyed to a LOGICAL tick (one tick per
// shard-handled request), not wall time: with one worker and one shard
// the whole heat/eviction history is a pure function of the request
// sequence, so the test can compute the eviction order on paper.
//
// Carries the `concurrency` ctest label: the chaos section drives a
// budgeted multi-tenant service from 8 raw threads under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/format_registry.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::bitwise_equal;
using serve_test::exact_batch;
using serve_test::exact_factors;
using serve_test::exact_tensor;
using serve_test::run_threads;

/// Injectable plan factory that counts structured (non-COO-family)
/// builds -- the single-flight witness.
ConcurrentPlanCache::BuildFn counting_build_fn(
    std::atomic<int>& structured_builds) {
  return [&structured_builds](const std::string& format,
                              const SparseTensor& tensor, index_t mode,
                              const PlanOptions& opts) {
    if (!ConcurrentPlanCache::coo_family(format)) {
      structured_builds.fetch_add(1, std::memory_order_relaxed);
    }
    return FormatRegistry::instance().create(format, tensor, mode, opts);
  };
}

/// The oracle configuration: one worker, one shard, a concrete upgrade
/// target, threshold 2, heat decay 1/2 -- every quantity below is exactly
/// computable from the request sequence.
static_assert(ConcurrentPlanCache::kHeatDecay == 0.5,
              "the eviction oracle's heat values assume decay 1/2");
ServeOptions oracle_options() {
  ServeOptions opts;
  opts.workers = 1;
  opts.shards = 1;
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 2;
  opts.compact_threshold = 0;
  return opts;
}

/// Bytes one structured plan of `tensor` charges, measured on an
/// unbudgeted probe service with the identical configuration (plan
/// builds are deterministic, so the budgeted service's plans are the
/// same size).
std::size_t measure_plan_bytes(const SparseTensor& tensor,
                               const FactorsPtr& factors) {
  TensorOpService probe(oracle_options());
  probe.register_tensor("probe", share_tensor(SparseTensor(tensor)));
  for (int i = 0; i < 2; ++i) {
    (void)probe.submit({"probe", 0, factors}).get();
  }
  probe.wait_idle();
  EXPECT_TRUE(probe.upgraded("probe", 0));
  return probe.plan_resident_bytes();
}

// ---------------------------------------------------------------------------
// The hand-computable oracle.  Tenants A, B, C hold COPIES OF THE SAME
// tensor (equal plan bytes); the budget fits exactly two plans.
//
//   ticks 1-2: two queries on A -> A upgrades, heat_A = 1.5 @ t2
//   ticks 3-4: two queries on B -> B upgrades (2 plans = budget full),
//              heat_B = 1.5 @ t4
//   ticks 5-6: two queries on C -> C's build admits.  At t6:
//              heat_A = 1.5 * 0.5^4 = 0.094,  heat_B = 1.5 * 0.5^2 =
//              0.375, incoming heat_C = 1.5.  Eviction is coldest-first
//              and strictly-colder-only: A is evicted, B survives.
//   ticks 7-8: two queries on A (the first serves bitwise-correct COO,
//              eviction zeroed the counters so the threshold is
//              RE-EARNED) -> A rebuilds; at t8 B (0.094) is colder than
//              C (0.375), so B is evicted.
// ---------------------------------------------------------------------------

TEST(BudgetEviction, HeatOracleEvictsColdestAndAnswersStayBitwise) {
  const std::vector<index_t> dims{28, 22, 16};
  const SparseTensor tensor = exact_tensor(dims, 1600, 201);
  const auto factors = exact_factors(dims, 5, 202);

  const std::size_t plan_bytes = measure_plan_bytes(tensor, factors);
  ASSERT_GT(plan_bytes, 0u);

  ServeOptions opts = oracle_options();
  opts.storage_budget_bytes = 2 * plan_bytes + plan_bytes / 2;
  std::atomic<int> structured_builds{0};
  opts.build_fn = counting_build_fn(structured_builds);
  TensorOpService service(opts);
  for (const char* name : {"A", "B", "C"}) {
    service.register_tensor(name, share_tensor(SparseTensor(tensor)));
  }

  // Reference answers from a never-upgrading service: eviction and COO
  // fallback may never change a single bit.
  ServeOptions ref_opts;
  ref_opts.workers = 1;
  ref_opts.upgrade_format = "coo";
  ref_opts.compact_threshold = 0;
  TensorOpService reference(ref_opts);
  reference.register_tensor("ref", share_tensor(SparseTensor(tensor)));
  const DenseMatrix expected =
      reference.submit({"ref", 0, factors}).get().output;

  auto drive = [&](const std::string& name) {
    ServeResponse last;
    for (int i = 0; i < 2; ++i) {
      last = service.submit({name, 0, factors}).get();
      EXPECT_TRUE(bitwise_equal(expected, last.output)) << name;
    }
    service.wait_idle();
    return last;
  };

  drive("A");
  EXPECT_TRUE(service.upgraded("A", 0));
  EXPECT_EQ(service.plan_resident_bytes(), plan_bytes);

  drive("B");
  EXPECT_TRUE(service.upgraded("B", 0));
  EXPECT_EQ(service.plan_resident_bytes(), 2 * plan_bytes);
  EXPECT_EQ(service.eviction_count(), 0u);

  drive("C");
  EXPECT_TRUE(service.upgraded("C", 0));
  EXPECT_TRUE(service.upgraded("B", 0)) << "evicted B instead of colder A";
  EXPECT_FALSE(service.upgraded("A", 0)) << "A survived past the budget";
  EXPECT_EQ(service.eviction_count(), 1u);
  EXPECT_EQ(service.plan_resident_bytes(), 2 * plan_bytes);

  // The evicted tenant answers from the COO fallback, bitwise.
  const ServeResponse coo = service.submit({"A", 0, factors}).get();
  EXPECT_TRUE(bitwise_equal(expected, coo.output));
  EXPECT_FALSE(coo.upgraded);
  service.wait_idle();
  // One post-eviction call does NOT rebuild: eviction zeroed the
  // counters, so the threshold must be re-earned (no thrash on a single
  // stray call).
  EXPECT_FALSE(service.upgraded("A", 0));

  // Second call re-crosses the threshold: A rebuilds (single-flight, so
  // exactly one more structured build) and now-coldest B is evicted.
  const ServeResponse rebuilt = service.submit({"A", 0, factors}).get();
  EXPECT_TRUE(bitwise_equal(expected, rebuilt.output));
  service.wait_idle();
  EXPECT_TRUE(service.upgraded("A", 0));
  EXPECT_FALSE(service.upgraded("B", 0)) << "expected B evicted on re-heat";
  EXPECT_TRUE(service.upgraded("C", 0));
  EXPECT_EQ(service.eviction_count(), 2u);
  EXPECT_EQ(structured_builds.load(), 4) << "A,B,C initial + A rebuild";
  EXPECT_LE(service.plan_resident_bytes(), opts.storage_budget_bytes);
  EXPECT_LE(service.peak_plan_resident_bytes(), opts.storage_budget_bytes)
      << "pre-charge admission overshot the budget at some instant";

  // Per-tenant accounting matches the story.
  for (const TensorOpService::TenantStats& t : service.tenant_stats()) {
    if (t.name == "A" || t.name == "B") {
      EXPECT_EQ(t.evictions, 1u) << t.name;
    } else if (t.name == "C") {
      EXPECT_EQ(t.evictions, 0u);
      EXPECT_GT(t.plan_bytes, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Single-flight: 8 threads hammering one tensor past the threshold
// trigger exactly ONE structured build.
// ---------------------------------------------------------------------------

TEST(BudgetEviction, ConcurrentThresholdCrossingBuildsOnce) {
  const std::vector<index_t> dims{24, 20, 16};
  const SparseTensor tensor = exact_tensor(dims, 1200, 211);
  const auto factors = exact_factors(dims, 4, 212);

  ServeOptions opts = oracle_options();
  opts.workers = 4;
  std::atomic<int> structured_builds{0};
  opts.build_fn = counting_build_fn(structured_builds);
  TensorOpService service(opts);
  service.register_tensor("D", share_tensor(SparseTensor(tensor)));

  std::atomic<int> mismatches{0};
  ServeOptions ref_opts;
  ref_opts.workers = 1;
  ref_opts.upgrade_format = "coo";
  ref_opts.compact_threshold = 0;
  TensorOpService reference(ref_opts);
  reference.register_tensor("ref", share_tensor(SparseTensor(tensor)));
  const DenseMatrix expected =
      reference.submit({"ref", 0, factors}).get().output;

  run_threads(8, [&](int) {
    for (int i = 0; i < 3; ++i) {
      const ServeResponse response = service.submit({"D", 0, factors}).get();
      if (!bitwise_equal(expected, response.output)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  service.wait_idle();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(service.upgraded("D", 0));
  EXPECT_EQ(structured_builds.load(), 1)
      << "threshold crossed concurrently must still build single-flight";
}

// ---------------------------------------------------------------------------
// Chaos: 8 threads, 6 tenants, a budget sized to a fraction of the
// fleet's appetite.  Invariants checked from INSIDE the storm: every
// answer bitwise-correct, plan residency never above the budget (it is
// <= budget at EVERY instant by pre-charge admission, so sampling it
// from racing threads can never catch an overshoot).
// ---------------------------------------------------------------------------

TEST(BudgetEviction, ChaosRespectsBudgetAndBitwiseAnswers) {
  const std::vector<index_t> dims{24, 20, 16};
  constexpr int kTenants = 6;
  std::vector<SparseTensor> tensors;
  tensors.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tensors.push_back(exact_tensor(dims, 1100 + 100 * t, 221 + t));
  }
  const auto factors = exact_factors(dims, 4, 231);

  ServeOptions opts;
  opts.workers = 4;
  opts.shards = 2;
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 1;
  opts.compact_threshold = 0;

  // Budget: ~the residency of one fully-upgraded tenant mode, so the 18
  // (tenant, mode) slot groups must fight over it.
  std::size_t one_mode_bytes = 0;
  {
    TensorOpService probe(opts);
    probe.register_tensor("probe", share_tensor(SparseTensor(tensors[0])));
    (void)probe.submit({"probe", 0, factors}).get();
    probe.wait_idle();
    one_mode_bytes = probe.plan_resident_bytes();
  }
  ASSERT_GT(one_mode_bytes, 0u);
  opts.storage_budget_bytes = 3 * one_mode_bytes;

  TensorOpService service(opts);
  std::vector<std::string> names;
  for (int t = 0; t < kTenants; ++t) {
    names.push_back("t" + std::to_string(t));
    service.register_tensor(names.back(),
                            share_tensor(SparseTensor(tensors[t])));
  }

  // Reference answers per (tenant, mode) from a monolithic
  // never-upgrading service.
  ServeOptions ref_opts;
  ref_opts.workers = 1;
  ref_opts.upgrade_format = "coo";
  ref_opts.compact_threshold = 0;
  TensorOpService reference(ref_opts);
  std::vector<std::vector<DenseMatrix>> expected(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    reference.register_tensor(names[t],
                              share_tensor(SparseTensor(tensors[t])));
    for (index_t mode = 0; mode < 3; ++mode) {
      expected[t].push_back(
          reference.submit({names[t], mode, factors}).get().output);
    }
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> budget_violations{0};
  run_threads(8, [&](int thread) {
    for (int i = 0; i < 40; ++i) {
      // Zipf-ish skew: most traffic on tenants 0/1, the tail cold.
      const int tenant = (i % 3 != 0) ? (i + thread) % 2 : (i + thread) % 6;
      const index_t mode = static_cast<index_t>((2 * i + thread) % 3);
      const ServeResponse response =
          service.submit({names[tenant], mode, factors}).get();
      if (!bitwise_equal(expected[tenant][mode], response.output)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      if (service.plan_resident_bytes() > opts.storage_budget_bytes) {
        budget_violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  service.wait_idle();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(budget_violations.load(), 0);
  EXPECT_LE(service.plan_resident_bytes(), opts.storage_budget_bytes);
  EXPECT_LE(service.peak_plan_resident_bytes(), opts.storage_budget_bytes);
  // 18 slot groups cannot fit in ~3 slots' worth of budget: the run must
  // have either evicted plans or rejected finished builds.
  EXPECT_GT(service.eviction_count() + service.upgrade_reject_count(), 0u);
}

// ---------------------------------------------------------------------------
// Delta reclaim: with plans out of the picture (upgrades off) and
// organic compaction gated shut, only the reclaimer's FORCE path can
// absorb delta chunks -- a tiny budget must drive it, and the merged
// answers must stay bitwise.
// ---------------------------------------------------------------------------

TEST(BudgetEviction, ReclaimForceCompactsDeltaOverBudget) {
  const std::vector<index_t> dims{26, 22, 18};
  const SparseTensor tensor = exact_tensor(dims, 2400, 241);
  const auto factors = exact_factors(dims, 5, 242);
  std::mt19937 rng(243);
  std::vector<SparseTensor> batches;
  for (int k = 0; k < 3; ++k) {
    batches.push_back(exact_batch(dims, 400, rng));
  }

  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 2;
  opts.upgrade_format = "coo";
  // Organic compaction can never fire: the force path is the only way
  // these thresholds are ever crossed.
  opts.compact_threshold = 0.95;
  opts.compact_min_nnz = static_cast<offset_t>(1) << 30;
  opts.storage_budget_bytes = 1;
  TensorOpService service(opts);
  service.register_tensor("wet", share_tensor(SparseTensor(tensor)));

  ServeOptions ref_opts;
  ref_opts.workers = 1;
  ref_opts.upgrade_format = "coo";
  ref_opts.compact_threshold = 0;
  TensorOpService reference(ref_opts);
  reference.register_tensor("ref", share_tensor(SparseTensor(tensor)));

  for (const SparseTensor& batch : batches) {
    service.apply_updates("wet", SparseTensor(batch));
    reference.apply_updates("ref", SparseTensor(batch));
    // Idle barrier per batch: each apply's reclaim pass completes before
    // the next adds delta, so nothing slips past a still-running pass.
    service.wait_idle();
    EXPECT_EQ(service.delta_resident_bytes(), 0u)
        << "reclaimer left delta resident over a 1-byte budget";
  }
  EXPECT_GE(service.compaction_count("wet"), 1u);
  EXPECT_EQ(service.plan_resident_bytes(), 0u);
  EXPECT_EQ(service.resident_bytes(), 0u);

  const DenseMatrix expected =
      reference.submit({"ref", 1, factors}).get().output;
  const ServeResponse merged = service.submit({"wet", 1, factors}).get();
  EXPECT_TRUE(bitwise_equal(expected, merged.output));
  EXPECT_EQ(merged.delta_nnz, 0) << "compacted shards still carry delta";
}

}  // namespace
}  // namespace bcsf
