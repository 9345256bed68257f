// The `auto` format policy: the paper's format-selection logic lifted to
// a whole-tensor decision (DESIGN.md §3).
//
// Two ingredients:
//  1. §V slice binning.  Every slice is COO (single nonzero), CSL (all
//     fibers singletons) or B-CSF material; `tensor_stats` already
//     computes the three populations.  A dominant population picks the
//     pure format; a mixed population picks HB-CSF, whose whole point is
//     routing each population to its own representation.
//  2. Fig-10 break-even.  Structured formats pay a build (sort-dominated,
//     priced at ~nnz log nnz, DESIGN.md §3) that COO does not; it
//     amortizes only if the caller will run enough MTTKRPs:
//     build <= n * (t_coo - t_structured).
//     The per-call gain scales with how much atomic traffic structure
//     removes and collapses on tensors too small to occupy the device,
//     so tiny tensors fall back to COO no matter their shape.
#pragma once

#include <string>

#include "core/tensor_op.hpp"
#include "tensor/sketch.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/tensor_stats.hpp"
#include "util/types.hpp"

namespace bcsf {

struct AutoPolicyOptions {
  /// Calls the plan is expected to serve (CPD-ALS: iterations per mode).
  /// Fewer calls -> harder to amortize a build -> COO.
  double expected_mttkrp_calls = 50.0;
  /// Workload the build amortizes against (DESIGN.md §7).  TTV calls are
  /// rank-1: the absolute per-call gain from removing atomic traffic
  /// scales with per-call arithmetic, so a TTV-only workload needs ~R x
  /// more calls to pay for the same sort-dominated build.  FIT runs the
  /// full-rank traversal and prices exactly like MTTKRP.
  OpKind op = OpKind::kMttkrp;
  /// Per-call gain of a rank-1 (TTV) call relative to a full-rank MTTKRP
  /// call at the paper's benchmark rank (32).
  double ttv_gain_fraction = 1.0 / 32.0;
  /// A slice population at or above this fraction is "dominant" and gets
  /// its pure format; below, populations are mixed and HB-CSF wins.
  double dominant_fraction = 0.95;
  /// Build cost model: build = sort_cost_ratio * nnz * log2(nnz) units,
  /// with one unit = the per-nonzero MTTKRP cost.
  double sort_cost_ratio = 1.0;
  /// COO's per-nonzero cost multiplier from global atomics (the paper's
  /// motivation for structured formats).
  double atomic_penalty = 4.0;
  /// Nonzeros needed to saturate the device; below this the structured
  /// kernels cannot convert balance into speed and the per-call gain
  /// shrinks proportionally.
  offset_t saturation_nnz = 1 << 16;
  /// Upper bound for auto_shard_count (DESIGN.md §8): shard builds run in
  /// parallel on the serving pool, so more shards than the pool can chew
  /// (or than the partitioner can keep balanced) buys nothing.
  unsigned max_shards = 16;
  /// --- Overhead terms for auto_shard_count (DESIGN.md §8) ---
  /// Splitting a call K ways saves at most nnz * (1 - 1/K) per-nonzero
  /// units of kernel time on the critical path, but PAYS K task
  /// submissions plus a K-way merge of the output.  Both costs are in
  /// the same per-nonzero MTTKRP units as everything above.
  ///
  /// Cost of submitting + scheduling one shard task on the worker pool
  /// (lock, wake-up, cache-cold entry).
  double shard_submit_cost = 2000.0;
  /// Per output entry (row x rank element) cost of reading K partials
  /// and writing the merged row -- the merge path's memory traffic.  The
  /// disjoint-output path escapes this term, but the policy prices the
  /// general case: non-partition modes always merge.
  double shard_reduce_cost = 1.0;
  /// Rank assumed when pricing the reduce term before any request
  /// arrives (the paper's benchmark rank).
  rank_t expected_rank = 32;
};

/// auto_shard_count's decision with its cost terms, all in per-nonzero
/// MTTKRP units per call, priced AT the recommended shard count.
struct ShardPricing {
  unsigned shards = 1;
  double gain = 0.0;         ///< kernel time taken off the critical path
  double fanout_cost = 0.0;  ///< K task submissions
  double reduce_cost = 0.0;  ///< K-way merge traffic (0 when shards == 1)
};

struct AutoDecision {
  std::string format;  ///< chosen registry key ("coo", "csl", "bcsf", "hbcsf")
  /// §V slice binning (fractions over non-empty slices).
  double coo_slice_fraction = 0.0;
  double csl_slice_fraction = 0.0;
  double csf_slice_fraction = 0.0;
  /// Imbalance signal: stddev / mean of nonzeros per fiber (Table II).
  double fiber_length_cv = 0.0;
  /// Estimated calls for a structured build to pay for itself; infinite
  /// when structure yields no per-call gain.
  double breakeven_calls = 0.0;
  /// Recommended nnz-balanced shard count (auto_shard_count at the
  /// policy's saturation term): 1 below device saturation, growing with
  /// nnz so each shard still saturates on its own.
  unsigned shards = 1;
  /// The overhead-aware terms behind `shards` (price_shard_count):
  /// shards > 1 only where sharding.gain exceeds the fan-out + reduce
  /// overheads.
  ShardPricing sharding;
  std::string rationale;  ///< one human-readable sentence

  std::string to_string() const;
};

/// Decides the format for mode-`mode` MTTKRP on `tensor`.  Uses
/// `compute_mode_stats` internally; the overload taking ModeStats lets
/// callers that already have them skip the recompute.
AutoDecision auto_select_format(const SparseTensor& tensor, index_t mode,
                                const AutoPolicyOptions& opts = {});
AutoDecision auto_select_format(const ModeStats& stats,
                                const AutoPolicyOptions& opts = {});

/// Sketch-backed decision (DESIGN.md §12): same logic as the ModeStats
/// overload, fed by the streaming sketch's approximate stats -- O(S)
/// instead of O(nnz log nnz), no tensor access.  The exact overloads
/// above are retained as the validation oracle; the sketch decision
/// matches them whenever the estimated csl/fiber statistics land on the
/// same side of `dominant_fraction` (the documented tolerance band).
/// Sharding is priced with the sketched max-slice skew, so tensors whose
/// largest slice provably snaps inside partition slack drop the reduce
/// term.
AutoDecision auto_select_format(const TensorSketch& sketch, index_t mode,
                                const AutoPolicyOptions& opts = {});

/// Prices the nnz-balanced shard count for a tensor (DESIGN.md §8),
/// overhead-aware.  Two gates:
///  1. Capacity: at most one shard per `saturation_nnz` nonzeros -- a
///     shard below saturation cannot convert its balanced structure into
///     speed, the same term that gates the Fig-10 break-even.
///  2. Break-even: K shards take nnz * (1 - 1/K) of kernel time off the
///     critical path per call, but pay K * shard_submit_cost fan-out plus
///     K * mode_dim * expected_rank * shard_reduce_cost merge traffic.
///     K grows only while the net stays positive, so tensors below the
///     measured break-even stay monolithic (shards == 1) no matter how
///     many saturations they hold.
/// `mode_dim` is the output-mode dimension the merge traffic scales with
/// (the partition mode's extent for the serving layer); 0 = unknown,
/// pricing the fan-out term only.  Result clamped to [1, max_shards].
/// `max_slice_nnz` is the sketched slice skew (largest slice's nonzero
/// count; 0 = unknown): when the largest slice fits inside a quarter of
/// the per-shard budget, every partition cut provably snaps to a slice
/// boundary, the shards own disjoint output rows, and the reduce term is
/// dropped (the disjoint-output execution path never merges).
ShardPricing price_shard_count(offset_t nnz, index_t mode_dim,
                               const AutoPolicyOptions& opts = {},
                               offset_t max_slice_nnz = 0);
unsigned auto_shard_count(offset_t nnz, index_t mode_dim = 0,
                          const AutoPolicyOptions& opts = {},
                          offset_t max_slice_nnz = 0);

}  // namespace bcsf
