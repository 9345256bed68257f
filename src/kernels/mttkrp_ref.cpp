#include <vector>

#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

void check_factors(const std::vector<index_t>& dims,
                   const std::vector<DenseMatrix>& factors) {
  BCSF_CHECK(factors.size() == dims.size(),
             "mttkrp: expected " << dims.size() << " factor matrices, got "
                                 << factors.size());
  const rank_t rank = factors.empty() ? 0 : factors.front().cols();
  BCSF_CHECK(rank > 0, "mttkrp: rank must be positive");
  for (std::size_t m = 0; m < factors.size(); ++m) {
    BCSF_CHECK(factors[m].rows() == dims[m],
               "mttkrp: factor " << m << " has " << factors[m].rows()
                                 << " rows, tensor mode has " << dims[m]);
    BCSF_CHECK(factors[m].cols() == rank, "mttkrp: factor rank mismatch");
  }
}

DenseMatrix mttkrp_reference(const SparseTensor& tensor, index_t mode,
                             const std::vector<DenseMatrix>& factors) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(mode < tensor.order(), "mttkrp_reference: bad mode");
  const rank_t rank = factors.front().cols();
  const index_t rows = tensor.dim(mode);

  // Double accumulation: the reference is the ground truth that every
  // fp32 kernel is compared against, so it should not share their
  // round-off.
  std::vector<double> acc(static_cast<std::size_t>(rows) * rank, 0.0);
  std::vector<double> prod(rank);
  for (offset_t z = 0; z < tensor.nnz(); ++z) {
    for (rank_t r = 0; r < rank; ++r) {
      prod[r] = static_cast<double>(tensor.value(z));
    }
    for (index_t m = 0; m < tensor.order(); ++m) {
      if (m == mode) continue;
      const auto row = factors[m].row(tensor.coord(m, z));
      for (rank_t r = 0; r < rank; ++r) prod[r] *= row[r];
    }
    const std::size_t base =
        static_cast<std::size_t>(tensor.coord(mode, z)) * rank;
    for (rank_t r = 0; r < rank; ++r) acc[base + r] += prod[r];
  }

  DenseMatrix out(rows, rank);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out.data()[i] = static_cast<value_t>(acc[i]);
  }
  return out;
}

void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             std::span<double> acc) {
  offset_t total = 0;
  for (const TensorPtr& chunk : deltas) {
    BCSF_CHECK(chunk != nullptr, "mttkrp_delta_accumulate: null chunk");
    total += chunk->nnz();
  }
  if (total == 0) return;
  BCSF_CHECK(mode < deltas.front()->order(),
             "mttkrp_delta_accumulate: bad mode");
  const rank_t rank = factors.front().cols();
  BCSF_CHECK(acc.size() ==
                 static_cast<std::size_t>(deltas.front()->dim(mode)) * rank,
             "mttkrp_delta_accumulate: accumulator has "
                 << acc.size() << " entries, expected "
                 << deltas.front()->dim(mode) << " x " << rank);
  mttkrp_delta_accumulate(deltas, mode, factors, acc, /*row_begin=*/0);
}

void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             std::span<double> acc, index_t row_begin) {
  offset_t total = 0;
  for (const TensorPtr& chunk : deltas) {
    BCSF_CHECK(chunk != nullptr, "mttkrp_delta_accumulate: null chunk");
    total += chunk->nnz();
  }
  if (total == 0) return;

  const SparseTensor& first = *deltas.front();
  check_factors(first.dims(), factors);
  BCSF_CHECK(mode < first.order(), "mttkrp_delta_accumulate: bad mode");
  const rank_t rank = factors.front().cols();
  BCSF_CHECK(rank > 0 && acc.size() % rank == 0,
             "mttkrp_delta_accumulate: accumulator size "
                 << acc.size() << " is not a multiple of rank " << rank);
  const index_t rows = static_cast<index_t>(acc.size() / rank);
  BCSF_CHECK(static_cast<std::size_t>(row_begin) + rows <=
                 static_cast<std::size_t>(first.dim(mode)),
             "mttkrp_delta_accumulate: window [" << row_begin << ", "
                 << row_begin + rows << ") exceeds dim " << first.dim(mode));

  std::vector<double> prod(rank);
  for (const TensorPtr& chunk : deltas) {
    const SparseTensor& delta = *chunk;
    BCSF_CHECK(delta.dims() == first.dims(),
               "mttkrp_delta_accumulate: chunk dims mismatch");
    for (offset_t z = 0; z < delta.nnz(); ++z) {
      for (rank_t r = 0; r < rank; ++r) {
        prod[r] = static_cast<double>(delta.value(z));
      }
      for (index_t m = 0; m < delta.order(); ++m) {
        if (m == mode) continue;
        const auto row = factors[m].row(delta.coord(m, z));
        for (rank_t r = 0; r < rank; ++r) prod[r] *= row[r];
      }
      const index_t out_row = delta.coord(mode, z);
      // Routing guard for the disjoint-output path: a nonzero outside the
      // owned window would silently belong to ANOTHER shard's rows.
      BCSF_CHECK(out_row >= row_begin && out_row - row_begin < rows,
                 "mttkrp_delta_accumulate: row " << out_row
                     << " outside owned window [" << row_begin << ", "
                     << row_begin + rows << ") -- delta routing drifted");
      const std::size_t base =
          static_cast<std::size_t>(out_row - row_begin) * rank;
      for (rank_t r = 0; r < rank; ++r) acc[base + r] += prod[r];
    }
  }
}

}  // namespace bcsf
