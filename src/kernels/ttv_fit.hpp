// Dedicated kernels for the non-MTTKRP ops of the execution protocol
// (DESIGN.md §7): multi-TTV and the CPD fit inner product, plus their
// delta-sweep variants for the snapshot/delta serving path (§6).
//
// Any plan can already serve these ops through its MTTKRP traversal (the
// generic TensorOpPlan::execute path); the kernels here are the fused
// COO-family implementations -- sequential double-accumulation references
// that anchor the equivalence tests, and OpenMP versions for the CPU COO
// plans, which skip the rank-R machinery entirely.
//
// Conventions (matching core/tensor_op.hpp):
//  * multi-TTV contracts every mode EXCEPT `mode` with a vector:
//        y(i) = sum_{z : coord(mode,z) = i} x(z) * Prod_{m != mode} v_m
//    Vectors arrive as dims[m] x 1 DenseMatrix columns, one per mode
//    (entry `mode` present for uniform indexing but never read).
//  * the fit inner product is  <X, Xhat> = sum_z x(z) * sum_r lambda_r
//    Prod_m A_m(coord(m,z), r)  -- the one CPD-fit piece that traverses
//    the tensor.  `lambda == nullptr` means all-ones weights.
//
// Both ops are linear in the tensor values, so the *_delta variants are
// exact on snapshot + delta splits, like mttkrp_delta_accumulate.
#pragma once

#include <span>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

struct CooSlices;  // kernels/mttkrp.hpp

/// Validates one dims[m] x 1 vector per mode; throws bcsf::Error.
void check_vectors(const std::vector<index_t>& dims,
                   const std::vector<DenseMatrix>& vectors);

/// Sequential ground truth (double accumulation, one float rounding at
/// the end), mirroring mttkrp_reference.
DenseMatrix ttv_reference(const SparseTensor& tensor, index_t mode,
                          const std::vector<DenseMatrix>& vectors);

/// OpenMP COO multi-TTV over pre-grouped slices (kernels/mttkrp.hpp
/// CooSlices), like mttkrp_coo_cpu but with the rank loop collapsed away
/// -- one multiply-accumulate per nonzero.
DenseMatrix ttv_coo_cpu(const CooSlices& coo,
                        const std::vector<DenseMatrix>& vectors);

/// Adds the multi-TTV contribution of frozen COO delta chunks into `acc`
/// (dims[mode] entries, typically a base plan's output promoted to
/// double) with no float rounding -- exactly the
/// mttkrp_delta_accumulate contract at rank 1.
void ttv_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                          const std::vector<DenseMatrix>& vectors,
                          std::span<double> acc);

/// Row-window variant (`acc` covers rows [row_begin, row_begin +
/// acc.size()) of the mode-`mode` result), mirroring the windowed
/// mttkrp_delta_accumulate for the disjoint-output serving path.
void ttv_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                          const std::vector<DenseMatrix>& vectors,
                          std::span<double> acc, index_t row_begin);

/// Sequential ground truth for <X, Xhat>, accumulated in double.
double fit_inner_reference(const SparseTensor& tensor,
                           const std::vector<DenseMatrix>& factors,
                           const std::vector<value_t>* lambda = nullptr);

/// OpenMP COO fit inner product (parallel reduction over nonzeros).
double fit_inner_coo_cpu(const SparseTensor& tensor,
                         const std::vector<DenseMatrix>& factors,
                         const std::vector<value_t>* lambda = nullptr);

/// <deltas, Xhat> summed over every chunk in double -- the scalar the
/// serving layer adds on top of a base plan's fit contribution.
double fit_inner_delta(std::span<const TensorPtr> deltas,
                       const std::vector<DenseMatrix>& factors,
                       const std::vector<value_t>* lambda = nullptr);

}  // namespace bcsf
