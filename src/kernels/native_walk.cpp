// Native walks of the simulated GPU kernels' schedules (DESIGN.md §1).
//
// The simulated kernels in mttkrp_*_gpu.cpp are cost models: besides the
// fp32 arithmetic they drive an L2 model per row access, attribute
// cycles per warp and run the SM scheduler.  The walks here keep only
// the arithmetic.  They visit the same slice -> fiber segment -> nonzero
// structure and issue, for every output row, the same float statements
// in the same order, so each returns its simulated twin's output bit for
// bit.
//
// One walker serves every structured schedule.  A schedule lists its
// work units (B-CSF blocks, CSL slices, HB-CSF singleton nonzeros) in
// its simulated launch order, and all units writing one output row are
// consecutive.  The walker cuts the unit list into nnz-balanced chunks,
// only where a new output row begins, and hands chunks to OpenMP
// threads: every row is then written by exactly one thread, in launch
// order, so the result does not depend on the thread count.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/mttkrp.hpp"
#include "kernels/omp_threads.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bcsf {

namespace {

/// Chunks per thread: enough for dynamic scheduling to even out slices
/// of different weight, few enough that the cut pass stays negligible.
constexpr offset_t kChunksPerThread = 8;

/// Rank-length accumulators, one set per thread.
struct Scratch {
  explicit Scratch(rank_t rank) : tmp(rank), acc(rank) {}
  std::vector<value_t> tmp;  ///< fiber partial / nonzero product
  std::vector<value_t> acc;  ///< CSL warp-segment accumulator
};

/// Threads for one walk: 1 on a ThreadPool worker (the pool already
/// supplies the parallelism), otherwise kernel_threads() (1 under
/// ThreadSanitizer; the serial walk has the same bits).
int walk_threads() {
  return ThreadPool::on_worker_thread() ? 1 : kernel_threads();
}

// The walker.  A Schedule provides
//   offset_t units() const;               work units in launch order
//   offset_t nnz() const;                 total nonzeros (chunk sizing)
//   offset_t unit_nnz(offset_t u) const;  nonzeros in unit u
//   bool opens_row(offset_t u) const;     u writes a different output row
//                                         than u - 1
//   void walk(offset_t u, Scratch&, DenseMatrix& out) const;
template <typename Schedule>
void walk_schedule(const Schedule& schedule, rank_t rank, DenseMatrix& out) {
  const offset_t n = schedule.units();
  const int threads = walk_threads();
  if (threads <= 1 || n <= 1) {
    Scratch scratch(rank);
    for (offset_t u = 0; u < n; ++u) schedule.walk(u, scratch, out);
    return;
  }
  const offset_t target = std::max<offset_t>(
      1, schedule.nnz() / (static_cast<offset_t>(threads) * kChunksPerThread));
  offset_vec cuts{0};
  offset_t load = 0;
  for (offset_t u = 0; u < n; ++u) {
    if (load >= target && schedule.opens_row(u)) {
      cuts.push_back(u);
      load = 0;
    }
    load += schedule.unit_nnz(u);
  }
  cuts.push_back(n);
  const auto n_chunks = static_cast<std::int64_t>(cuts.size()) - 1;
#pragma omp parallel num_threads(threads)
  {
    Scratch scratch(rank);
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t c = 0; c < n_chunks; ++c) {
      for (offset_t u = cuts[c]; u < cuts[c + 1]; ++u) {
        schedule.walk(u, scratch, out);
      }
    }
  }
}

/// B-CSF (and unsplit GPU-CSF): one unit per block, as run_bcsf_engine
/// launches them.  A slc-split slice spans consecutive blocks.  Each
/// fiber's scaled partial goes straight into the output row
/// (OutputCombine::kPerFiber, the combine every plan uses).
class BcsfSchedule {
 public:
  BcsfSchedule(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& factors)
      : bcsf_(bcsf),
        csf_(bcsf.csf()),
        blocks_(bcsf.blocks()),
        factors_(factors),
        fiber_level_(csf_.node_levels() - 1) {}

  offset_t units() const { return blocks_.size(); }
  offset_t nnz() const { return bcsf_.nnz(); }
  offset_t unit_nnz(offset_t u) const { return blocks_[u].nnz; }
  bool opens_row(offset_t u) const {
    return u == 0 || blocks_[u].slice != blocks_[u - 1].slice;
  }

  void walk(offset_t u, Scratch& s, DenseMatrix& out) const {
    const BcsfTensor::Block& block = blocks_[u];
    const ModeOrder& order = csf_.mode_order();
    const DenseMatrix& leaf_factor = factors_[order.back()];
    const rank_t rank = out.cols();
    auto yrow = out.row(csf_.node_index(0, block.slice));
    for (offset_t f = block.fiber_begin; f < block.fiber_end; ++f) {
      std::fill(s.tmp.begin(), s.tmp.end(), 0.0F);
      const offset_t z_end = csf_.child_end(fiber_level_, f);
      for (offset_t z = csf_.child_begin(fiber_level_, f); z < z_end; ++z) {
        const value_t v = csf_.value(z);
        const auto crow = leaf_factor.row(csf_.leaf_index(z));
        for (rank_t r = 0; r < rank; ++r) s.tmp[r] += v * crow[r];
      }
      for (index_t level = fiber_level_; level >= 1; --level) {
        const auto row =
            factors_[order[level]].row(bcsf_.fiber_coord(level, f));
        for (rank_t r = 0; r < rank; ++r) s.tmp[r] *= row[r];
      }
      for (rank_t r = 0; r < rank; ++r) yrow[r] += s.tmp[r];
    }
  }

 private:
  const BcsfTensor& bcsf_;
  const CsfTensor& csf_;
  const std::vector<BcsfTensor::Block>& blocks_;
  const std::vector<DenseMatrix>& factors_;
  index_t fiber_level_;
};

/// CSL: one unit per compressed slice; inside it, the warp segments of
/// at most device.csl_segment_nnz nonzeros that mttkrp_csl_gpu launches,
/// each reduced on its own and then added to the row in segment order.
class CslSchedule {
 public:
  CslSchedule(const CslTensor& csl, const std::vector<DenseMatrix>& factors,
              const DeviceModel& device)
      : csl_(csl),
        factors_(factors),
        segment_nnz_(static_cast<offset_t>(device.csl_segment_nnz)) {}

  offset_t units() const { return csl_.num_slices(); }
  offset_t nnz() const { return csl_.nnz(); }
  offset_t unit_nnz(offset_t s) const {
    return csl_.slice_end(s) - csl_.slice_begin(s);
  }
  bool opens_row(offset_t) const { return true; }

  void walk(offset_t s, Scratch& scratch, DenseMatrix& out) const {
    const ModeOrder& order = csl_.mode_order();
    const index_t n_other = csl_.order() - 1;
    const rank_t rank = out.cols();
    auto yrow = out.row(csl_.slice_index(s));
    const offset_t end = csl_.slice_end(s);
    for (offset_t z0 = csl_.slice_begin(s); z0 < end; z0 += segment_nnz_) {
      std::fill(scratch.acc.begin(), scratch.acc.end(), 0.0F);
      const offset_t z1 = std::min(z0 + segment_nnz_, end);
      for (offset_t z = z0; z < z1; ++z) {
        const value_t v = csl_.value(z);
        for (rank_t r = 0; r < rank; ++r) scratch.tmp[r] = v;
        for (index_t p = 0; p < n_other; ++p) {
          const auto row = factors_[order[p + 1]].row(csl_.nz_index(p, z));
          for (rank_t r = 0; r < rank; ++r) scratch.tmp[r] *= row[r];
        }
        for (rank_t r = 0; r < rank; ++r) scratch.acc[r] += scratch.tmp[r];
      }
      for (rank_t r = 0; r < rank; ++r) yrow[r] += scratch.acc[r];
    }
  }

 private:
  const CslTensor& csl_;
  const std::vector<DenseMatrix>& factors_;
  offset_t segment_nnz_;
};

/// HB-CSF's COO group: one unit per singleton slice, i.e. per nonzero,
/// each owning its output row.
class SingletonSchedule {
 public:
  SingletonSchedule(const HbcsfTensor& h,
                    const std::vector<DenseMatrix>& factors)
      : h_(h), factors_(factors) {}

  offset_t units() const { return h_.coo_nnz(); }
  offset_t nnz() const { return h_.coo_nnz(); }
  offset_t unit_nnz(offset_t) const { return 1; }
  bool opens_row(offset_t) const { return true; }

  void walk(offset_t z, Scratch& s, DenseMatrix& out) const {
    const ModeOrder& order = h_.mode_order();
    const rank_t rank = out.cols();
    const value_t v = h_.coo_value(z);
    for (rank_t r = 0; r < rank; ++r) s.tmp[r] = v;
    for (index_t p = 1; p < h_.order(); ++p) {
      const auto row = factors_[order[p]].row(h_.coo_index(p, z));
      for (rank_t r = 0; r < rank; ++r) s.tmp[r] *= row[r];
    }
    auto yrow = out.row(h_.coo_index(0, z));
    for (rank_t r = 0; r < rank; ++r) yrow[r] += s.tmp[r];
  }

 private:
  const HbcsfTensor& h_;
  const std::vector<DenseMatrix>& factors_;
};

}  // namespace

DenseMatrix mttkrp_bcsf_walk(const BcsfTensor& bcsf,
                             const std::vector<DenseMatrix>& factors) {
  const CsfTensor& csf = bcsf.csf();
  check_factors(csf.dims(), factors);
  const rank_t rank = factors.front().cols();
  DenseMatrix out(csf.dims()[csf.root_mode()], rank);
  walk_schedule(BcsfSchedule(bcsf, factors), rank, out);
  return out;
}

DenseMatrix mttkrp_csl_walk(const CslTensor& csl,
                            const std::vector<DenseMatrix>& factors,
                            const DeviceModel& device) {
  check_factors(csl.dims(), factors);
  const rank_t rank = factors.front().cols();
  DenseMatrix out(csl.dims()[csl.root_mode()], rank);
  walk_schedule(CslSchedule(csl, factors, device), rank, out);
  return out;
}

DenseMatrix mttkrp_hbcsf_walk(const HbcsfTensor& hbcsf,
                              const std::vector<DenseMatrix>& factors,
                              const DeviceModel& device) {
  check_factors(hbcsf.dims(), factors);
  const rank_t rank = factors.front().cols();
  // The groups own disjoint output rows, so walking all three into one
  // matrix equals the simulated kernel's sum of three group outputs
  // (every other group contributes an exact +0 to a row).
  DenseMatrix out(hbcsf.dims()[hbcsf.root_mode()], rank);
  walk_schedule(SingletonSchedule(hbcsf, factors), rank, out);
  walk_schedule(CslSchedule(hbcsf.csl(), factors, device), rank, out);
  walk_schedule(BcsfSchedule(hbcsf.bcsf(), factors), rank, out);
  return out;
}

DenseMatrix mttkrp_coo_walk(const SparseTensor& tensor, index_t mode,
                            const std::vector<DenseMatrix>& factors) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(mode < tensor.order(), "mttkrp_coo_walk: bad mode");
  const rank_t rank = factors.front().cols();
  DenseMatrix out(tensor.dim(mode), rank);
  std::vector<value_t> prod(rank);
  const offset_t m = tensor.nnz();
  for (offset_t z = 0; z < m; ++z) {
    const value_t v = tensor.value(z);
    for (rank_t r = 0; r < rank; ++r) prod[r] = v;
    for (index_t f = 0; f < tensor.order(); ++f) {
      if (f == mode) continue;
      const auto row = factors[f].row(tensor.coord(f, z));
      for (rank_t r = 0; r < rank; ++r) prod[r] *= row[r];
    }
    auto yrow = out.row(tensor.coord(mode, z));
    for (rank_t r = 0; r < rank; ++r) yrow[r] += prod[r];
  }
  return out;
}

}  // namespace bcsf
