// Unit tests for DynamicSparseTensor (DESIGN.md §6): versioned
// snapshots over an immutable base plus append-only delta chunks, the
// additive-update semantics, merge/coalesce, compaction via
// replace_base, and the linearity contract of mttkrp_delta_accumulate
// that the serving layer's base + delta decomposition rests on.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <utility>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::ref_scale;

SparseTensor base_tensor() { return generate_uniform({20, 25, 30}, 1500, 5); }

/// One-nonzero update batch helper.
SparseTensor batch(const std::vector<index_t>& dims,
                   std::vector<index_t> coords, value_t value) {
  SparseTensor b(dims);
  b.push_back(coords, value);
  return b;
}

TEST(DynamicSparseTensor, VersionsAndSnapshotsAreImmutable) {
  DynamicSparseTensor dyn(share_tensor(base_tensor()));
  EXPECT_EQ(dyn.version(), 0u);
  EXPECT_EQ(dyn.delta_nnz(), 0u);

  const TensorSnapshot snap0 = dyn.snapshot();
  EXPECT_EQ(snap0.version, 0u);
  EXPECT_EQ(snap0.base_version, 0u);
  EXPECT_EQ(snap0.delta_nnz, 0u);
  EXPECT_EQ(snap0.delta_fraction(), 0.0);

  EXPECT_EQ(dyn.apply(batch(dyn.dims(), {1, 2, 3}, 2.0F)), 1u);
  EXPECT_EQ(dyn.apply(batch(dyn.dims(), {4, 5, 6}, -1.0F)), 2u);
  EXPECT_EQ(dyn.delta_nnz(), 2u);

  // The old snapshot still describes version 0.
  EXPECT_EQ(snap0.deltas.size(), 0u);
  EXPECT_EQ(snap0.nnz(), snap0.base->nnz());

  const TensorSnapshot snap2 = dyn.snapshot();
  EXPECT_EQ(snap2.version, 2u);
  EXPECT_EQ(snap2.deltas.size(), 2u);
  EXPECT_EQ(snap2.delta_nnz, 2u);
  EXPECT_EQ(snap2.base.get(), snap0.base.get()) << "base must be shared";

  // Empty batches are a no-op, not a version bump.
  EXPECT_EQ(dyn.apply(SparseTensor(dyn.dims())), 2u);
}

TEST(DynamicSparseTensor, RejectsMismatchedDims) {
  DynamicSparseTensor dyn(share_tensor(base_tensor()));
  EXPECT_THROW(dyn.apply(SparseTensor({20, 25})), Error);
  EXPECT_THROW(dyn.apply(SparseTensor({20, 25, 31})), Error);
  EXPECT_THROW(
      dyn.replace_base(share_tensor(SparseTensor({9, 9, 9})), 0), Error);
  EXPECT_THROW(dyn.replace_base(share_tensor(base_tensor()), 7), Error)
      << "future version must be rejected";
}

TEST(DynamicSparseTensor, MergedCoalescesAdditiveDuplicates) {
  SparseTensor base({4, 4, 4});
  base.push_back(std::vector<index_t>{0, 0, 0}, 1.0F);
  base.push_back(std::vector<index_t>{1, 1, 1}, 2.0F);
  DynamicSparseTensor dyn(share_tensor(std::move(base)));
  dyn.apply(batch(dyn.dims(), {0, 0, 0}, 3.0F));   // hits existing coord
  dyn.apply(batch(dyn.dims(), {2, 2, 2}, -1.0F));  // new coord

  const TensorSnapshot snap = dyn.snapshot();
  EXPECT_EQ(snap.nnz(), 4u);

  const SparseTensor concat = snap.merged(/*coalesce=*/false);
  EXPECT_EQ(concat.nnz(), 4u);

  const SparseTensor merged = snap.merged(/*coalesce=*/true);
  EXPECT_EQ(merged.nnz(), 3u) << "duplicate coordinate must coalesce";
  // Sorted identity order: (0,0,0) first, with 1 + 3 summed.
  EXPECT_EQ(merged.coord(0, 0), 0u);
  EXPECT_FLOAT_EQ(merged.value(0), 4.0F);
}

TEST(DynamicSparseTensor, ReplaceBaseKeepsChunksAppliedAfterCapture) {
  DynamicSparseTensor dyn(share_tensor(base_tensor()));
  dyn.apply(batch(dyn.dims(), {1, 1, 1}, 1.0F));  // version 1
  dyn.apply(batch(dyn.dims(), {2, 2, 2}, 1.0F));  // version 2

  const TensorSnapshot captured = dyn.snapshot();  // version 2
  dyn.apply(batch(dyn.dims(), {3, 3, 3}, 1.0F));   // version 3: post-capture

  TensorPtr new_base = share_tensor(captured.merged(/*coalesce=*/true));
  const std::uint64_t v = dyn.replace_base(new_base, captured.version);
  EXPECT_EQ(v, 4u);

  const TensorSnapshot after = dyn.snapshot();
  EXPECT_EQ(after.base_version, 4u);
  EXPECT_EQ(after.base.get(), new_base.get());
  ASSERT_EQ(after.deltas.size(), 1u) << "post-capture chunk must survive";
  EXPECT_EQ(after.delta_nnz, 1u);
  EXPECT_EQ(after.deltas[0]->coord(0, 0), 3u);
  EXPECT_EQ(after.nnz(), new_base->nnz() + 1);
}

// The decomposition the serving layer relies on: base-plan result plus
// mttkrp_delta_accumulate over the chunks equals the reference MTTKRP of
// the merged tensor, for every mode.
TEST(DynamicSparseTensor, DeltaAccumulateMatchesMergedReference) {
  DynamicSparseTensor dyn(share_tensor(base_tensor()));
  SparseTensor updates(dyn.dims());
  SparseTensor more(dyn.dims());
  {
    std::mt19937 rng(99);
    std::vector<index_t> coords(3);
    for (int i = 0; i < 400; ++i) {
      for (int m = 0; m < 3; ++m) {
        coords[m] = static_cast<index_t>(rng() % dyn.dims()[m]);
      }
      (i % 2 ? updates : more)
          .push_back(coords, static_cast<value_t>(1 + rng() % 3));
    }
  }
  dyn.apply(std::move(updates));
  dyn.apply(std::move(more));

  const TensorSnapshot snap = dyn.snapshot();
  const SparseTensor merged = snap.merged(/*coalesce=*/true);
  const auto factors = make_random_factors(merged.dims(), 8, 31);

  for (index_t mode = 0; mode < merged.order(); ++mode) {
    SCOPED_TRACE("mode " + std::to_string(mode));
    const DenseMatrix expected = mttkrp_reference(merged, mode, factors);
    // Promote the base result once, sweep, cast back once -- what the
    // service does.  One call over every chunk and per-chunk chaining
    // must both land within tolerance.
    const DenseMatrix base = mttkrp_reference(*snap.base, mode, factors);
    const auto sweep_and_cast = [&](bool per_chunk) {
      std::vector<double> acc(base.data().begin(), base.data().end());
      if (per_chunk) {
        for (const TensorPtr& chunk : snap.deltas) {
          mttkrp_delta_accumulate(std::span<const TensorPtr>(&chunk, 1), mode,
                                  factors, std::span<double>(acc));
        }
      } else {
        mttkrp_delta_accumulate(snap.deltas, mode, factors,
                                std::span<double>(acc));
      }
      DenseMatrix out(base.rows(), base.cols());
      for (std::size_t i = 0; i < acc.size(); ++i) {
        out.data()[i] = static_cast<value_t>(acc[i]);
      }
      return out;
    };
    const DenseMatrix composed = sweep_and_cast(/*per_chunk=*/false);
    EXPECT_LT(expected.max_abs_diff(composed), 1e-4 * ref_scale(expected));
    const DenseMatrix chained = sweep_and_cast(/*per_chunk=*/true);
    EXPECT_LT(expected.max_abs_diff(chained), 1e-4 * ref_scale(expected));
  }
}

TEST(DynamicSparseTensor, DeltaAccumulateValidatesShapes) {
  const std::vector<index_t> dims = {6, 7, 8};
  const auto factors = make_random_factors(dims, 4, 1);
  SparseTensor delta(dims);
  delta.push_back(std::vector<index_t>{1, 2, 3}, 1.0F);
  const TensorPtr chunk = share_tensor(std::move(delta));
  const std::span<const TensorPtr> chunks(&chunk, 1);

  // The accumulator must be dims[mode] x R (6 x 4 for mode 0).
  std::vector<double> ok(6 * 4);
  mttkrp_delta_accumulate(chunks, 0, factors, std::span<double>(ok));

  std::vector<double> wrong_rows(5 * 4);
  EXPECT_THROW(mttkrp_delta_accumulate(chunks, 0, factors,
                                       std::span<double>(wrong_rows)),
               Error);
  std::vector<double> wrong_rank(6 * 3);
  EXPECT_THROW(mttkrp_delta_accumulate(chunks, 0, factors,
                                       std::span<double>(wrong_rank)),
               Error);
  EXPECT_THROW(
      mttkrp_delta_accumulate(chunks, 3, factors, std::span<double>(ok)),
      Error);
}

}  // namespace
}  // namespace bcsf
