// Dynamic-update correctness for TensorOpService (DESIGN.md §6): queries
// racing apply_updates and background compaction must return a result
// BITWISE-equal to the reference MTTKRP of the merged tensor at the
// snapshot version the response names -- a version the service held
// while the query was in flight.
//
// Bitwise comparison across formats and racy interleavings is possible
// because every input lives on a coarse power-of-two grid: tensor and
// update values are small integers, factor entries are multiples of 0.5
// with |entry| <= 1.  Each product then carries <= 8 mantissa bits and
// every partial sum stays far below 2^18, so ALL float and double
// arithmetic in every kernel is exact -- no rounding anywhere, hence any
// accumulation order, any base/delta split, and any coalescing produce
// the identical bit pattern.  A single wrong or missing nonzero, by the
// same token, shows up as a hard bitwise mismatch.
//
// Like the other `concurrency`-labeled suites, the format pool is
// simulated-GPU formats plus the sequential reference so the suite is
// ThreadSanitizer-clean by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::run_threads;

using serve_test::append_nonzeros;
using serve_test::bitwise_equal;
using serve_test::exact_batch;
using serve_test::exact_factors;
using serve_test::exact_tensor;

/// Computes (and memoizes) the reference MTTKRP of "base + every update
/// batch with version <= v" -- the ground truth for a response naming
/// snapshot version v.  Thread-safe recording; lookups happen after the
/// parallel phase.  Exact arithmetic makes the result independent of
/// batch order and of whether the service compacted in between.
class SnapshotOracle {
 public:
  SnapshotOracle(SparseTensor base, FactorsPtr factors)
      : base_(std::move(base)), factors_(std::move(factors)) {}

  void record(std::uint64_t version, SparseTensor batch) {
    std::lock_guard<std::mutex> lock(m_);
    batches_.emplace_back(version, std::move(batch));
  }

  const DenseMatrix& expected(std::uint64_t version, index_t mode) {
    std::lock_guard<std::mutex> lock(m_);
    const auto key = std::make_pair(version, mode);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    SparseTensor merged(base_.dims());
    append_nonzeros(merged, base_);
    for (const auto& [v, batch] : batches_) {
      if (v <= version) append_nonzeros(merged, batch);
    }
    return cache_.emplace(key, mttkrp_reference(merged, mode, *factors_))
        .first->second;
  }

 private:
  std::mutex m_;
  SparseTensor base_;
  FactorsPtr factors_;
  std::vector<std::pair<std::uint64_t, SparseTensor>> batches_;
  std::map<std::pair<std::uint64_t, index_t>, DenseMatrix> cache_;
};

// ---------------------------------------------------------------------------
// Deterministic protocol walkthrough: update -> query -> compact ->
// re-upgrade, every response bitwise-checked.
// ---------------------------------------------------------------------------

TEST(DynamicUpdates, UpdateCompactReupgradeLifecycle) {
  const std::vector<index_t> dims = {24, 30, 36};
  SparseTensor base = exact_tensor(dims, 2000, 11);
  FactorsPtr factors = exact_factors(dims, 8, 22);
  SnapshotOracle oracle(SparseTensor(base), factors);
  std::mt19937 rng(33);

  ServeOptions opts;
  opts.workers = 4;
  opts.initial_format = "coo";
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 6;
  opts.compact_threshold = 0.2;
  opts.compact_min_nnz = 64;
  TensorOpService service(opts);
  service.register_tensor("t", share_tensor(std::move(base)));

  auto run_wave = [&](int n, index_t mode) {
    std::vector<ServeRequest> batch(static_cast<std::size_t>(n),
                                     ServeRequest{"t", mode, factors});
    for (auto& future : service.submit_batch(std::move(batch))) {
      ServeResponse r = future.get();
      EXPECT_TRUE(bitwise_equal(oracle.expected(r.snapshot_version, mode),
                                r.output))
          << "sequence " << r.sequence << " version " << r.snapshot_version
          << " served by " << r.served_format;
    }
  };

  // Phase 1: static serving, upgrade lands as in PR 2.
  run_wave(12, 0);
  service.wait_idle();
  EXPECT_TRUE(service.upgraded("t", 0));
  EXPECT_EQ(service.current_format("t", 0), "bcsf");
  EXPECT_EQ(service.snapshot_version("t"), 0u);

  // Phase 2: updates stream in; the structured base plan keeps serving,
  // responses fold the delta in and name the version they saw.
  for (int i = 0; i < 3; ++i) {
    SparseTensor batch = exact_batch(dims, 100, rng);
    oracle.record(service.snapshot_version("t") + 1, SparseTensor(batch));
    service.apply_updates("t", std::move(batch));
  }
  EXPECT_EQ(service.snapshot_version("t"), 3u);
  EXPECT_EQ(service.compaction_count("t"), 0u) << "still below threshold";
  EXPECT_GT(service.delta_fraction("t"), 0.1);
  run_wave(8, 0);
  service.wait_idle();
  {
    // Post-upgrade, pre-compaction: responses must ride the structured
    // plan AND carry the delta.
    auto future = service.submit({"t", 0, factors});
    ServeResponse r = future.get();
    EXPECT_EQ(r.served_format, "bcsf");
    EXPECT_EQ(r.snapshot_version, 3u);
    EXPECT_EQ(r.delta_nnz, 300u);
    EXPECT_TRUE(bitwise_equal(oracle.expected(3, 0), r.output));
  }

  // Phase 3: two more batches push the delta fraction over 0.2 and the
  // apply itself triggers the background compaction.
  for (int i = 0; i < 2; ++i) {
    SparseTensor batch = exact_batch(dims, 150, rng);
    oracle.record(service.snapshot_version("t") + 1, SparseTensor(batch));
    service.apply_updates("t", std::move(batch));
  }
  service.wait_idle();
  EXPECT_EQ(service.compaction_count("t"), 1u);
  EXPECT_EQ(service.delta_fraction("t"), 0.0) << "delta folded into base";
  EXPECT_EQ(service.snapshot_version("t"), 6u) << "5 applies + 1 base swap";
  const TensorSnapshot merged = service.snapshot("t");
  EXPECT_EQ(merged.deltas.size(), 0u);
  EXPECT_EQ(merged.base_version, 6u);

  // Re-decision on every compaction (DESIGN.md §12): the merged base's
  // sketch is installed with the commit, the §V policy re-ran on it
  // inside the compaction task, and -- the carried call counts already
  // clear the threshold -- the structured build re-landed before idle,
  // with no request in between.
  EXPECT_TRUE(service.upgraded("t", 0));
  EXPECT_EQ(service.current_format("t", 0), "bcsf");
  run_wave(8, 0);
  service.wait_idle();
  EXPECT_TRUE(service.upgraded("t", 0));
  EXPECT_EQ(service.current_format("t", 0), "bcsf");
  {
    auto future = service.submit({"t", 0, factors});
    ServeResponse r = future.get();
    EXPECT_EQ(r.delta_nnz, 0u) << "post-compaction serving is pure base";
    EXPECT_TRUE(bitwise_equal(oracle.expected(6, 0), r.output));
  }
}

// ---------------------------------------------------------------------------
// Randomized interleavings: query threads race updater threads while
// upgrades and compactions fire underneath.  Every response must be
// bitwise-correct for the version it names, and versions must be
// monotone along each serial submit->get chain.
// ---------------------------------------------------------------------------

TEST(DynamicUpdates, RacingQueriesUpdatesAndCompactionsStayExact) {
  const std::vector<std::string> upgrade_pool = {"bcsf", "csl", "auto",
                                                 "gpu-csf"};
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const index_t order = (trial % 2 == 0) ? 3 : 4;
    std::vector<index_t> dims;
    for (index_t m = 0; m < order; ++m) {
      dims.push_back(16 + 6 * ((trial + m) % 3));
    }
    SparseTensor base = exact_tensor(dims, 1500, 100 + trial);
    FactorsPtr factors = exact_factors(dims, (trial % 2) ? 4 : 8, 7 * trial);
    SnapshotOracle oracle(SparseTensor(base), factors);

    ServeOptions opts;
    opts.workers = 2 + trial;
    opts.initial_format = (trial % 2) ? "reference" : "coo";
    opts.upgrade_format = upgrade_pool[trial % upgrade_pool.size()];
    opts.upgrade_threshold = 4 + trial;
    opts.compact_threshold = 0.12;
    opts.compact_min_nnz = 32;
    TensorOpService service(opts);
    service.register_tensor("x", share_tensor(std::move(base)));

    constexpr int kQueryThreads = 4;
    constexpr int kUpdateThreads = 2;
    constexpr int kQueriesPerThread = 18;
    constexpr int kBatchesPerThread = 8;

    struct Observed {
      index_t mode;
      std::uint64_t version;
      DenseMatrix output;
    };
    std::vector<std::vector<Observed>> observed(kQueryThreads);
    std::atomic<bool> failed{false};

    run_threads(kQueryThreads + kUpdateThreads, [&](int i) {
      std::mt19937 rng(9000 + 31 * trial + i);
      if (i < kQueryThreads) {
        for (int q = 0; q < kQueriesPerThread; ++q) {
          const index_t mode = static_cast<index_t>(rng() % order);
          ServeResponse r = service.submit({"x", mode, factors}).get();
          observed[i].push_back(
              {mode, r.snapshot_version, std::move(r.output)});
        }
      } else {
        for (int b = 0; b < kBatchesPerThread; ++b) {
          SparseTensor batch =
              exact_batch(dims, 20 + rng() % 60, rng);
          SparseTensor copy(batch);
          const std::uint64_t version =
              service.apply_updates("x", std::move(batch));
          // Versions are assigned under the tensor's own lock, so the
          // recorded (version, batch) pairs reconstruct every snapshot.
          oracle.record(version, std::move(copy));
          if (version == 0) failed.store(true);
        }
      }
    });
    service.wait_idle();
    EXPECT_FALSE(failed.load());

    std::uint64_t max_version_seen = 0;
    for (int i = 0; i < kQueryThreads; ++i) {
      std::uint64_t previous = 0;
      for (std::size_t q = 0; q < observed[i].size(); ++q) {
        const Observed& o = observed[i][q];
        EXPECT_GE(o.version, previous)
            << "versions must be monotone along a serial submit->get chain";
        previous = o.version;
        max_version_seen = std::max(max_version_seen, o.version);
        EXPECT_TRUE(bitwise_equal(oracle.expected(o.version, o.mode), o.output))
            << "thread " << i << " query " << q << " mode " << o.mode
            << " version " << o.version;
      }
    }
    // The interleaving genuinely exercised the dynamic path: updates were
    // observed mid-stream and the final version covers all batches.
    EXPECT_GT(max_version_seen, 0u);
    EXPECT_GE(service.snapshot_version("x"),
              static_cast<std::uint64_t>(kUpdateThreads * kBatchesPerThread));
  }
}

// Compaction alone (update-heavy, query-light): applies must trigger the
// merge without any query traffic, and a query afterwards sees the
// compacted base with an empty delta.
TEST(DynamicUpdates, UpdateOnlyWorkloadCompactsWithoutQueries) {
  const std::vector<index_t> dims = {20, 22, 24};
  SparseTensor base = exact_tensor(dims, 600, 5);
  FactorsPtr factors = exact_factors(dims, 8, 6);
  SnapshotOracle oracle(SparseTensor(base), factors);
  std::mt19937 rng(8);

  ServeOptions opts;
  opts.workers = 2;
  opts.upgrade_format = "coo";
  opts.compact_threshold = 0.3;
  opts.compact_min_nnz = 100;
  TensorOpService service(opts);
  service.register_tensor("u", share_tensor(std::move(base)));

  for (int i = 0; i < 6; ++i) {
    SparseTensor batch = exact_batch(dims, 80, rng);
    oracle.record(service.snapshot_version("u") + 1, SparseTensor(batch));
    service.apply_updates("u", std::move(batch));
  }
  service.wait_idle();
  EXPECT_GE(service.compaction_count("u"), 1u);

  ServeResponse r = service.submit({"u", 1, factors}).get();
  EXPECT_TRUE(bitwise_equal(oracle.expected(r.snapshot_version, 1), r.output));
  EXPECT_EQ(r.served_format, "coo");
}

}  // namespace
}  // namespace bcsf
