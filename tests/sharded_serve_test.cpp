// Sharded serving (DESIGN.md §8): racing queries, updates routed to
// shards by slice range, and independent per-shard upgrades/compactions
// through TensorOpService.
//
// Runs on the exact power-of-two grid (serve_test_util.hpp), where every
// kernel's arithmetic is rounding-free: a response must match the
// sequential reference of its op on the ACCUMULATED tensor BITWISE
// (matrix ops) or exactly (FIT's double scalar), for every shard count.
// Racing phases check each response against the two states a concurrent
// single-shard update batch allows.  The suite carries the `concurrency`
// ctest label, so CI runs it under ThreadSanitizer; kernels here are
// single-threaded inside (simulated-GPU "coo"/"bcsf" and the sequential
// reference), so every TSan report indicts serve/, util/, or tensor/.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::append_nonzeros;
using serve_test::bitwise_equal;
using serve_test::exact_batch;
using serve_test::exact_factors;
using serve_test::exact_tensor;
using serve_test::run_threads;

constexpr rank_t kRank = 4;

struct Fixture {
  std::vector<index_t> dims{24, 20, 16};
  SparseTensor oracle;  ///< base + every applied update, append order
  std::shared_ptr<const std::vector<DenseMatrix>> factors;
  std::shared_ptr<const std::vector<DenseMatrix>> vectors;
  std::shared_ptr<const std::vector<value_t>> lambda;

  explicit Fixture(std::uint64_t seed, offset_t nnz = 1600)
      : oracle(exact_tensor(dims, nnz, seed)),
        factors(exact_factors(dims, kRank, seed + 1)),
        vectors(exact_factors(dims, 1, seed + 2)),
        lambda(std::make_shared<const std::vector<value_t>>(kRank, 0.5F)) {}

  ServeRequest request(index_t mode, OpKind op) const {
    ServeRequest r;
    r.tensor = "t";
    r.mode = mode;
    r.op = op;
    r.factors = op == OpKind::kTtv ? vectors : factors;
    if (op == OpKind::kFit) r.lambda = lambda;
    return r;
  }

  /// Checks `response` against the reference of its op on `state`.
  void expect_exact(const ServeResponse& response, const SparseTensor& state,
                    index_t mode, OpKind op) const {
    switch (op) {
      case OpKind::kMttkrp:
        EXPECT_TRUE(
            bitwise_equal(mttkrp_reference(state, mode, *factors),
                          response.output));
        break;
      case OpKind::kTtv:
        EXPECT_TRUE(bitwise_equal(ttv_reference(state, mode, *vectors),
                                  response.output));
        break;
      case OpKind::kFit:
        EXPECT_EQ(response.scalar,
                  fit_inner_reference(state, *factors, lambda.get()));
        break;
      case OpKind::kStats:
        ADD_FAILURE() << "expect_exact has no kStats reference";
        break;
    }
  }
};

ServeOptions sharded_options(unsigned shards, double threshold = 3.0) {
  ServeOptions opts;
  opts.workers = 4;
  opts.shards = shards;
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = threshold;
  opts.compact_threshold = 0.2;
  opts.compact_min_nnz = 64;
  opts.plan.device = DeviceModel::tiny();
  return opts;
}

/// An update batch confined to ONE root-mode slice, so the whole batch
/// routes to a single shard.
SparseTensor single_slice_batch(const std::vector<index_t>& dims,
                                index_t slice, offset_t nnz,
                                std::mt19937& rng) {
  SparseTensor batch(dims);
  std::vector<index_t> coords(dims.size());
  for (offset_t i = 0; i < nnz; ++i) {
    coords[0] = slice;
    for (std::size_t m = 1; m < dims.size(); ++m) {
      coords[m] = static_cast<index_t>(rng() % dims[m]);
    }
    batch.push_back(coords, static_cast<value_t>(1 + rng() % 3));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Quiesced exactness: every shard count, every op, across updates,
// upgrades, and compactions.
// ---------------------------------------------------------------------------

TEST(ShardedServe, ExactAcrossShardCountsAndOps) {
  for (unsigned shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(shards);
    Fixture fx(500 + shards);
    TensorOpService service(sharded_options(shards));
    service.register_tensor("t", share_tensor(SparseTensor(fx.oracle)));
    EXPECT_EQ(service.shard_count("t"), shards);

    std::mt19937 rng(900 + shards);
    for (int wave = 0; wave < 4; ++wave) {
      std::vector<ServeRequest> batch;
      std::vector<std::pair<index_t, OpKind>> meta;
      for (index_t mode = 0; mode < 3; ++mode) {
        for (OpKind op : kAllOps) {
          batch.push_back(fx.request(mode, op));
          meta.emplace_back(mode, op);
        }
      }
      auto futures = service.submit_batch(std::move(batch));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServeResponse response = futures[i].get();
        EXPECT_EQ(response.shards, shards);
        fx.expect_exact(response, fx.oracle, meta[i].first, meta[i].second);
      }
      // Updates between waves (multi-shard batches): split by slice
      // range, applied while no query is in flight, visible to the next
      // wave in full.
      const SparseTensor update = exact_batch(fx.dims, 120, rng);
      append_nonzeros(fx.oracle, update);
      service.apply_updates("t", update);
    }
    service.wait_idle();
    // Traffic crossed the threshold: every shard upgraded (possibly
    // recompacted and re-upgraded along the way is fine too -- quiesced
    // responses stayed exact above either way).
    const std::uint64_t version = service.snapshot_version("t");
    EXPECT_GT(version, 0u);
    auto last = service.submit(fx.request(0, OpKind::kMttkrp)).get();
    fx.expect_exact(last, fx.oracle, 0, OpKind::kMttkrp);
    EXPECT_GE(last.snapshot_version, version);
  }
}

// ---------------------------------------------------------------------------
// Racing: queries vs a concurrent single-shard update batch.  Each
// response must equal the op on the pre-batch or post-batch tensor --
// nothing in between exists, because the batch lands in exactly one
// shard's dynamic tensor and a query pairs each shard's plans and deltas
// under that shard's lock.
// ---------------------------------------------------------------------------

TEST(ShardedServe, RacingQueriesObserveAtomicShardUpdates) {
  Fixture fx(600);
  TensorOpService service(sharded_options(4, /*threshold=*/6.0));
  service.register_tensor("t", share_tensor(SparseTensor(fx.oracle)));

  std::mt19937 rng(1234);
  for (int round = 0; round < 6; ++round) {
    const index_t slice = static_cast<index_t>(rng() % fx.dims[0]);
    const SparseTensor batch =
        single_slice_batch(fx.dims, slice, 96, rng);
    SparseTensor after = fx.oracle;
    append_nonzeros(after, batch);

    const index_t mode = static_cast<index_t>(round % 3);
    const OpKind op = kAllOps[static_cast<std::size_t>(round) % 3];
    // Fire queries and the update concurrently: responses may capture
    // the shard before or after the batch, never a torn state.
    std::vector<std::future<ServeResponse>> futures;
    for (int q = 0; q < 6; ++q) futures.push_back(service.submit(fx.request(mode, op)));
    SparseTensor update_copy = batch;  // apply_updates consumes its arg
    service.apply_updates("t", std::move(update_copy));
    for (auto& f : futures) {
      const ServeResponse response = f.get();
      bool matches_before = false;
      bool matches_after = false;
      switch (op) {
        case OpKind::kMttkrp: {
          const DenseMatrix rb = mttkrp_reference(fx.oracle, mode, *fx.factors);
          const DenseMatrix ra = mttkrp_reference(after, mode, *fx.factors);
          matches_before = static_cast<bool>(bitwise_equal(rb, response.output));
          matches_after = static_cast<bool>(bitwise_equal(ra, response.output));
          break;
        }
        case OpKind::kTtv: {
          const DenseMatrix rb = ttv_reference(fx.oracle, mode, *fx.vectors);
          const DenseMatrix ra = ttv_reference(after, mode, *fx.vectors);
          matches_before = static_cast<bool>(bitwise_equal(rb, response.output));
          matches_after = static_cast<bool>(bitwise_equal(ra, response.output));
          break;
        }
        case OpKind::kFit: {
          const double rb =
              fit_inner_reference(fx.oracle, *fx.factors, fx.lambda.get());
          const double ra =
              fit_inner_reference(after, *fx.factors, fx.lambda.get());
          matches_before = response.scalar == rb;
          matches_after = response.scalar == ra;
          break;
        }
        case OpKind::kStats:
          ADD_FAILURE() << "the rounds send no kStats request";
          break;
      }
      EXPECT_TRUE(matches_before || matches_after)
          << "round " << round << ": response at version "
          << response.snapshot_version
          << " matches neither pre- nor post-update state";
    }
    fx.oracle = std::move(after);
    service.wait_idle();  // let upgrades/compactions from this round land
  }
}

// ---------------------------------------------------------------------------
// Update routing and independent per-shard compaction.
// ---------------------------------------------------------------------------

TEST(ShardedServe, UpdatesRouteToShardsAndCompactIndependently) {
  Fixture fx(700, /*nnz=*/1200);
  ServeOptions opts = sharded_options(2);
  opts.upgrade_format = "coo";  // isolate the compaction machinery
  TensorOpService service(opts);
  service.register_tensor("t", share_tensor(SparseTensor(fx.oracle)));
  ASSERT_EQ(service.shard_count("t"), 2u);

  // Pick a slice owned by shard 1 and hammer it with updates.
  const auto status0 = service.shard_status("t", 0);
  ASSERT_EQ(status0.size(), 2u);
  const index_t hot_slice = status0[1].slice_begin;
  ASSERT_EQ(service.shard_for_slice("t", hot_slice), 1u);

  std::mt19937 rng(4321);
  while (service.compaction_count("t") == 0) {
    SparseTensor batch = single_slice_batch(fx.dims, hot_slice, 128, rng);
    append_nonzeros(fx.oracle, batch);
    service.apply_updates("t", std::move(batch));
    service.wait_idle();
  }

  const auto status = service.shard_status("t", 0);
  EXPECT_EQ(status[0].compactions, 0u) << "cold shard must not compact";
  EXPECT_EQ(status[0].snapshot_version, 0u)
      << "cold shard must not even version-bump";
  EXPECT_EQ(status[0].delta_nnz, 0u);
  EXPECT_GE(status[1].compactions, 1u) << "hot shard must compact";
  EXPECT_GT(status[1].base_nnz, status0[1].base_nnz)
      << "compaction folds the delta into the hot shard's base";

  // Post-compaction queries stay exact.
  const ServeResponse response =
      service.submit(fx.request(0, OpKind::kMttkrp)).get();
  fx.expect_exact(response, fx.oracle, 0, OpKind::kMttkrp);
}

// ---------------------------------------------------------------------------
// Hot-shard lifecycle: upgrade everywhere, compact ONE shard (its
// generation resets to COO), observe "mixed", re-upgrade, all exact.
// The compaction itself re-decides and relaunches the structured build
// (DESIGN.md §12), which would close the "mixed" window before
// wait_idle returns -- that eager lifecycle is pinned by
// DynamicUpdates.UpdateCompactReupgradeLifecycle.  Here a gated build_fn
// holds the re-upgrade (every bcsf build fails while the gate is shut;
// the service re-arms a failed upgrade), so the window stays observable
// and the request-driven re-upgrade runs once the gate opens.
// ---------------------------------------------------------------------------

TEST(ShardedServe, HotShardCompactsAndReupgradesWhileColdStaysStructured) {
  Fixture fx(800, /*nnz=*/1400);
  ServeOptions opts = sharded_options(2, /*threshold=*/2.0);
  std::atomic<bool> gate_shut{false};
  std::atomic<int> held_builds{0};
  opts.build_fn = [&gate_shut, &held_builds](const std::string& format,
                                             const SparseTensor& t,
                                             index_t mode,
                                             const PlanOptions& plan) {
    if (format == "bcsf" && gate_shut.load()) {
      ++held_builds;
      throw Error("bcsf build held by the test gate");
    }
    return FormatRegistry::instance().create(format, t, mode, plan);
  };
  TensorOpService service(opts);
  service.register_tensor("t", share_tensor(SparseTensor(fx.oracle)));

  // Phase 1: traffic upgrades BOTH shards on mode 0.
  for (int i = 0; i < 4; ++i) {
    fx.expect_exact(service.submit(fx.request(0, OpKind::kMttkrp)).get(),
                    fx.oracle, 0, OpKind::kMttkrp);
    service.wait_idle();
  }
  ASSERT_TRUE(service.upgraded("t", 0));
  ASSERT_EQ(service.current_format("t", 0), "bcsf");

  // Phase 2: updates into shard 1 until it compacts.  Its fresh
  // generation serves COO again while shard 0 keeps its structured plan:
  // the formats MIX until re-upgrade -- the §8 incremental story.
  gate_shut = true;
  const index_t hot_slice = service.shard_status("t", 0)[1].slice_begin;
  std::mt19937 rng(5678);
  while (service.compaction_count("t") == 0) {
    SparseTensor batch = single_slice_batch(fx.dims, hot_slice, 128, rng);
    append_nonzeros(fx.oracle, batch);
    service.apply_updates("t", std::move(batch));
    service.wait_idle();
  }
  EXPECT_FALSE(service.upgraded("t", 0));
  EXPECT_EQ(service.current_format("t", 0), "mixed");
  const auto mixed_status = service.shard_status("t", 0);
  EXPECT_TRUE(mixed_status[0].upgraded);
  EXPECT_EQ(mixed_status[0].format, "bcsf");
  EXPECT_FALSE(mixed_status[1].upgraded);
  EXPECT_GT(held_builds.load(), 0)
      << "the compaction's re-decision must have launched the re-upgrade";

  // Phase 3: carried-over counters re-launch the hot shard's build on
  // the next request; responses stay exact before, during, and after.
  gate_shut = false;
  while (!service.upgraded("t", 0)) {
    fx.expect_exact(service.submit(fx.request(0, OpKind::kMttkrp)).get(),
                    fx.oracle, 0, OpKind::kMttkrp);
    service.wait_idle();
  }
  EXPECT_EQ(service.current_format("t", 0), "bcsf");
  fx.expect_exact(service.submit(fx.request(0, OpKind::kFit)).get(),
                  fx.oracle, 0, OpKind::kFit);
}

// ---------------------------------------------------------------------------
// Chaos: concurrent queries, multi-shard updates, and introspection from
// raw threads.  Invariant checks are structural; the value of this test
// is TSan coverage of the sharded fan-out, routing, and per-shard
// generation swaps racing each other.
// ---------------------------------------------------------------------------

TEST(ShardedServe, RacingChaosKeepsInvariants) {
  Fixture fx(900, /*nnz=*/2000);
  TensorOpService service(sharded_options(4, /*threshold=*/5.0));
  service.register_tensor("t", share_tensor(SparseTensor(fx.oracle)));

  std::atomic<bool> bad{false};
  std::vector<SparseTensor> applied[2];  // per-updater logs, joined below
  run_threads(8, [&](int tid) {
    std::mt19937 rng(10'000 + tid);
    if (tid < 2) {
      // Updaters: multi-shard batches race everything else.
      for (int i = 0; i < 10; ++i) {
        SparseTensor batch = exact_batch(fx.dims, 64, rng);
        applied[tid].push_back(batch);
        service.apply_updates("t", std::move(batch));
      }
    } else if (tid < 7) {
      // Queriers: mixed ops; per-thread snapshot versions are monotone.
      std::uint64_t last_version = 0;
      for (int i = 0; i < 12; ++i) {
        const index_t mode = static_cast<index_t>(rng() % 3);
        const OpKind op = kAllOps[rng() % 3];
        const ServeResponse r = service.submit(fx.request(mode, op)).get();
        if (r.shards != 4 || r.snapshot_version < last_version) bad = true;
        last_version = r.snapshot_version;
        if (op == OpKind::kFit) {
          if (!r.output.data().empty()) bad = true;
        } else {
          const rank_t want = op == OpKind::kTtv ? 1 : kRank;
          if (r.output.rows() != fx.dims[mode] || r.output.cols() != want) {
            bad = true;
          }
        }
      }
    } else {
      // Observer: introspection races the swaps it reports on.
      for (int i = 0; i < 30; ++i) {
        (void)service.current_format("t", static_cast<index_t>(i % 3));
        (void)service.delta_fraction("t");
        (void)service.shard_status("t", 0);
        (void)service.snapshot_version("t");
      }
    }
  });
  EXPECT_FALSE(bad.load());
  service.wait_idle();

  // Quiesced: the accumulated tensor (updates commute -- addition) must
  // be served exactly, races, compactions, and upgrades notwithstanding.
  for (const auto& log : applied) {
    for (const SparseTensor& batch : log) append_nonzeros(fx.oracle, batch);
  }
  for (OpKind op : kAllOps) {
    fx.expect_exact(service.submit(fx.request(1, op)).get(), fx.oracle, 1, op);
  }

  // Single-shard tensors still expose the §6 snapshot API; sharded ones
  // direct callers to shard_snapshot.
  EXPECT_THROW(service.snapshot("t"), Error);
}

}  // namespace
}  // namespace bcsf
