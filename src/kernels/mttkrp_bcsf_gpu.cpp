// B-CSF GPU kernel (§IV) and, via a no-split B-CSF, the plain GPU-CSF
// kernel whose load imbalance motivates the paper (Table II).
//
// Launch geometry: one thread block per B-CSF block; fiber segments are
// assigned to the block's warps round-robin.  A warp processes one fiber
// segment at a time: lanes span the R factor columns, the segment's
// nonzeros are consumed serially (tmp[r] += val * C[k][r], Alg. 3 line
// 11), then the fiber's ancestor rows scale the partial result and it is
// combined into the output row -- via shared-memory combine when the
// block owns the slice, via global atomics when slc-split spread the
// slice over several blocks.
#include <vector>

#include "gpusim/scheduler.hpp"
#include "kernels/bcsf_engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

namespace detail {

GpuMttkrpResult run_bcsf_engine(const BcsfTensor& bcsf,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device,
                                const std::string& kernel_name,
                                OutputCombine combine) {
  const CsfTensor& csf = bcsf.csf();
  check_factors(csf.dims(), factors);
  const rank_t rank = factors.front().cols();
  const index_t root = csf.root_mode();
  const ModeOrder& order = csf.mode_order();
  const index_t n_levels = csf.node_levels();
  const index_t fiber_level = n_levels - 1;
  const index_t leaf_mode = order.back();

  GpuKernelContext ctx(device);
  const std::vector<unsigned> regions = register_factor_regions(ctx, csf.order());
  const unsigned out_region = regions.back();

  DenseMatrix out(csf.dims()[root], rank);
  KernelLaunch launch;
  launch.name = kernel_name;
  launch.warps_per_block = device.warps_per_block();
  launch.blocks.reserve(bcsf.blocks().size());

  std::vector<value_t> tmp(rank);
  std::vector<value_t> block_acc(rank);  // kPerSliceShared accumulator
  const DenseMatrix& leaf_factor = factors[leaf_mode];

  for (const auto& block : bcsf.blocks()) {
    const unsigned n_warps = static_cast<unsigned>(
        std::min<offset_t>(launch.warps_per_block,
                           block.fiber_end - block.fiber_begin));
    BlockWork bw;
    bw.warp_cycles.assign(n_warps, 0.0);

    const index_t out_row = csf.node_index(0, block.slice);
    for (offset_t f = block.fiber_begin; f < block.fiber_end; ++f) {
      const unsigned w =
          static_cast<unsigned>((f - block.fiber_begin) % n_warps);
      double& cost = bw.warp_cycles[w];

      // --- leaf accumulation: tmp[r] = sum_z val * C(k, r).
      std::fill(tmp.begin(), tmp.end(), 0.0F);
      const offset_t z_begin = csf.child_begin(fiber_level, f);
      const offset_t z_end = csf.child_end(fiber_level, f);
      for (offset_t z = z_begin; z < z_end; ++z) {
        const index_t k = csf.leaf_index(z);
        const value_t v = csf.value(z);
        const unsigned misses = ctx.touch_row(regions[leaf_mode], k, rank);
        cost += device.cycles_per_nnz_csf + misses * device.cycles_l2_miss;
        const auto crow = leaf_factor.row(k);
        for (rank_t r = 0; r < rank; ++r) tmp[r] += v * crow[r];
      }
      launch.total_flops += 2.0 * rank * static_cast<double>(z_end - z_begin);

      // --- ancestor multiplies: fiber's own index level first (the
      // B(j,:) scaling of Alg. 3 line 13), then any middle levels (order
      // > 3).
      for (index_t level = fiber_level; level >= 1; --level) {
        const index_t coord = bcsf.fiber_coord(level, f);
        const index_t mode = order[level];
        const unsigned misses = ctx.touch_row(regions[mode], coord, rank);
        cost += (level == fiber_level ? device.cycles_per_fiber
                                      : device.cycles_per_ancestor) +
                misses * device.cycles_l2_miss;
        const auto row = factors[mode].row(coord);
        for (rank_t r = 0; r < rank; ++r) tmp[r] *= row[r];
        launch.total_flops += rank;
      }

      // --- combine into the output row.
      if (combine == OutputCombine::kPerSliceShared) {
        // Accumulate into the block-shared buffer; Y is touched once per
        // block, in the epilogue below.
        if (f == block.fiber_begin) {
          std::fill(block_acc.begin(), block_acc.end(), 0.0F);
        }
        for (rank_t r = 0; r < rank; ++r) block_acc[r] += tmp[r];
        cost += device.cycles_atomic_shared;  // shared-memory reduction step
      } else {
        const unsigned out_misses = ctx.touch_row(out_region, out_row, rank);
        if (block.atomic_output) {
          cost +=
              device.cycles_atomic_global + out_misses * device.cycles_l2_miss;
          ++launch.atomic_ops;
        } else {
          cost +=
              device.cycles_atomic_shared + out_misses * device.cycles_l2_miss;
        }
        auto yrow = out.row(out_row);
        for (rank_t r = 0; r < rank; ++r) yrow[r] += tmp[r];
      }
      launch.total_flops += rank;
    }
    bw.warp_cycles[0] += device.cycles_per_slice;  // block epilogue
    if (combine == OutputCombine::kPerSliceShared) {
      const unsigned out_misses = ctx.touch_row(out_region, out_row, rank);
      bw.warp_cycles[0] += out_misses * device.cycles_l2_miss;
      if (block.atomic_output) {
        bw.warp_cycles[0] += device.cycles_atomic_global;
        ++launch.atomic_ops;
      }
      auto yrow = out.row(out_row);
      for (rank_t r = 0; r < rank; ++r) yrow[r] += block_acc[r];
    }
    launch.blocks.push_back(std::move(bw));
  }

  launch.l2_hit_rate_pct = ctx.l2_hit_rate_pct();
  return {std::move(out), simulate_launch(device, launch)};
}

}  // namespace detail

GpuMttkrpResult mttkrp_bcsf_gpu(const BcsfTensor& bcsf,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device,
                                OutputCombine combine) {
  return detail::run_bcsf_engine(bcsf, factors, device, "bcsf-gpu", combine);
}

}  // namespace bcsf
