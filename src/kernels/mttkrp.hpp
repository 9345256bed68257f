// Public MTTKRP API: every kernel in the paper, over every format.
//
// Simulated GPU kernels (*_gpu) are cost models: they walk the exact
// (block, warp, work item) decomposition the simulator costs and return
// its SimReport, computing the fp32 output along the way.  Each has a
// native walk (*_walk) that runs the same traversal with the same
// per-output-row float statement order but no cache model or scheduler,
// so its output is bitwise-equal to the simulated kernel's; plans serve
// repeat calls from the walk (DESIGN.md §1, §8).  CPU kernels are real
// OpenMP code timed with wall clocks; the cross-platform figures
// additionally use the analytic Broadwell model in cpu_model.hpp.
//
// Convention: `factors` holds one matrix per tensor mode (factors[m] has
// dims[m] rows, all with equal rank).  Mode-n MTTKRP reads every factor
// except n and returns a dims[n] x R matrix.
#pragma once

#include <span>
#include <vector>

#include "formats/bcsf.hpp"
#include "formats/csf.hpp"
#include "formats/csl.hpp"
#include "formats/fcoo.hpp"
#include "formats/hbcsf.hpp"
#include "formats/hicoo.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"

namespace bcsf {

/// Validates factor shapes against the tensor dims; throws bcsf::Error.
void check_factors(const std::vector<index_t>& dims,
                   const std::vector<DenseMatrix>& factors);

// ---------------------------------------------------------------------------
// Reference (sequential, double accumulation; Algorithm 2)
// ---------------------------------------------------------------------------

DenseMatrix mttkrp_reference(const SparseTensor& tensor, index_t mode,
                             const std::vector<DenseMatrix>& factors);

/// Adds the MTTKRP contribution of `deltas` -- COO batches of additive
/// updates with the base tensor's dims -- into `inout` (dims[mode] x R,
/// typically a base plan's output).  MTTKRP is linear in the tensor
/// values, so base-plan-result + delta contribution equals the MTTKRP of
/// the merged tensor.  Accumulates in double like mttkrp_reference:
/// inout is promoted ONCE, every chunk's terms accumulate, and one cast
/// back happens at the end -- so a whole TensorSnapshot delta is swept
/// with a single float rounding boundary (per-chunk calls would round at
/// every chunk seam) and without per-chunk buffer copies.
void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             DenseMatrix& inout);

/// Single-chunk convenience overload.
void mttkrp_delta_accumulate(const SparseTensor& delta, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             DenseMatrix& inout);

/// Double-accumulator variant for callers already holding a promoted
/// buffer (`acc` is row-major dims[mode] x R): adds every chunk's MTTKRP
/// terms with NO float rounding at all.  The sharded serving path sweeps
/// each shard's delta into the shard's double partial this way, so a
/// whole K-shard response rounds at exactly one float boundary when the
/// partials are reduced (DESIGN.md §8).
void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             std::span<double> acc);

/// Row-window variant for the disjoint-output serving path (DESIGN.md
/// §8): `acc` covers only output rows [row_begin, row_begin +
/// acc.size()/R) of the mode-`mode` result.  Every delta coordinate must
/// fall inside the window -- the sharded service routes update batches by
/// slice range, so an out-of-window row means routing drifted from shard
/// ownership and the call throws rather than corrupt a neighbor's rows.
void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             std::span<double> acc, index_t row_begin);

// ---------------------------------------------------------------------------
// Simulated GPU kernels
// ---------------------------------------------------------------------------

struct GpuMttkrpResult {
  DenseMatrix output;
  SimReport report;
};

/// Plain GPU-CSF (§IV's starting point, Table II): one thread block per
/// slice, fibers round-robin across warps -- no splitting, the kernel
/// whose imbalance motivates B-CSF.  Builds the unsplit B-CSF schedule
/// (unsplit_bcsf_options()) on every call.
GpuMttkrpResult mttkrp_csf_gpu(const CsfTensor& csf,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device);

/// Same kernel on a prebuilt unsplit B-CSF (both splits off; throws
/// otherwise), for callers that keep the schedule across calls.
GpuMttkrpResult mttkrp_csf_gpu(const BcsfTensor& unsplit,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device);

/// How a B-CSF block combines fiber results into the output row -- a
/// design choice Alg. 3 leaves open (its lines 12-13 update Y per fiber;
/// SPLATT's CPU code accumulates per slice):
///  * kPerFiber: each fiber's scaled partial is combined into Y
///    immediately (shared-memory atomic within the block, global atomic
///    across slc-split blocks);
///  * kPerSliceShared: warps accumulate into a block-shared buffer and
///    the block writes Y once at the end (fewer output touches, one
///    block-wide reduction).
enum class OutputCombine { kPerFiber, kPerSliceShared };

/// B-CSF kernel (§IV): one thread block per B-CSF block, fiber segments
/// round-robin across warps, global atomics only for split slices.
GpuMttkrpResult mttkrp_bcsf_gpu(const BcsfTensor& bcsf,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device,
                                OutputCombine combine = OutputCombine::kPerFiber);

/// CSL kernel (Alg. 4): one warp per compressed slice.
GpuMttkrpResult mttkrp_csl_gpu(const CslTensor& csl,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device);

/// ParTI-style COO kernel [18]: thread per nonzero, global atomics.
GpuMttkrpResult mttkrp_coo_gpu(const SparseTensor& tensor, index_t mode,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device);

/// F-COO kernel [17]: per-partition products + segmented scan.
GpuMttkrpResult mttkrp_fcoo_gpu(const FcooTensor& fcoo,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device);

/// HB-CSF kernel (Alg. 5 lines 18-20): COO, CSL and B-CSF group kernels
/// launched back-to-back into one output.
GpuMttkrpResult mttkrp_hbcsf_gpu(const HbcsfTensor& hbcsf,
                                 const std::vector<DenseMatrix>& factors,
                                 const DeviceModel& device);

// ---------------------------------------------------------------------------
// Native walks of the simulated kernels' schedules (native_walk.cpp)
// ---------------------------------------------------------------------------
//
// Each walk is bitwise-equal to its simulated twin at any thread count.
// The structured walks run OpenMP-parallel over runs of work units cut
// at slice boundaries (every output row is written by one thread, in the
// twin's order); they stay serial on ThreadPool workers so the serving
// pool is not oversubscribed.

/// Twin of mttkrp_bcsf_gpu with the default OutputCombine::kPerFiber --
/// and, on an unsplit B-CSF, of mttkrp_csf_gpu.
DenseMatrix mttkrp_bcsf_walk(const BcsfTensor& bcsf,
                             const std::vector<DenseMatrix>& factors);

/// Twin of mttkrp_csl_gpu; `device` supplies the warp segment size.
DenseMatrix mttkrp_csl_walk(const CslTensor& csl,
                            const std::vector<DenseMatrix>& factors,
                            const DeviceModel& device);

/// Twin of mttkrp_hbcsf_gpu: the COO, CSL and B-CSF groups in turn.
DenseMatrix mttkrp_hbcsf_walk(const HbcsfTensor& hbcsf,
                              const std::vector<DenseMatrix>& factors,
                              const DeviceModel& device);

/// Twin of mttkrp_coo_gpu: one serial pass in nonzero order (output rows
/// recur anywhere in COO order, so there is no row-disjoint cut).
DenseMatrix mttkrp_coo_walk(const SparseTensor& tensor, index_t mode,
                            const std::vector<DenseMatrix>& factors);

// ---------------------------------------------------------------------------
// CPU kernels (real OpenMP implementations)
// ---------------------------------------------------------------------------

/// COO nonzeros grouped by mode-`mode` output row: a copy sorted by
/// mode_order_for(mode) plus where each slice's run starts, so threads
/// owning whole slices never collide.  The CPU-COO plan builds it once.
struct CooSlices {
  index_t mode = 0;
  SparseTensor sorted;
  offset_vec slice_start;  ///< one entry per slice, then nnz

  /// Sorted coordinates plus the slice starts (§III accounting).
  std::size_t index_storage_bytes() const {
    return sorted.index_storage_bytes() + slice_start.size() * kIndexBytes;
  }
};

CooSlices group_coo_slices(const SparseTensor& tensor, index_t mode);

/// Parallel COO MTTKRP (Algorithm 2) over pre-grouped slices.
DenseMatrix mttkrp_coo_cpu(const CooSlices& coo,
                           const std::vector<DenseMatrix>& factors);

/// Convenience: groups `tensor` (a sorted copy) and runs the above.
DenseMatrix mttkrp_coo_cpu(const SparseTensor& tensor, index_t mode,
                           const std::vector<DenseMatrix>& factors);

/// SPLATT-style CSF MTTKRP (Algorithm 3), parallel over slices.
DenseMatrix mttkrp_csf_cpu(const CsfTensor& csf,
                           const std::vector<DenseMatrix>& factors);

/// CSL MTTKRP (Algorithm 4), parallel over slices.
DenseMatrix mttkrp_csl_cpu(const CslTensor& csl,
                           const std::vector<DenseMatrix>& factors);

/// HiCOO MTTKRP [13]: block-by-block with privatized accumulators.
DenseMatrix mttkrp_hicoo_cpu(const HicooTensor& hicoo, index_t mode,
                             const std::vector<DenseMatrix>& factors);

}  // namespace bcsf
