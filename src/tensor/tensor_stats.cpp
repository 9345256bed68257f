#include "tensor/tensor_stats.hpp"

#include <atomic>
#include <span>
#include <sstream>

#include "util/error.hpp"

namespace bcsf {

namespace {
// Every O(nnz) exact-stats scan bumps this counter.  The serving layer's
// sketch-backed policy path must never land here after warm-up; the
// regression suite asserts the count stays flat across a full serve
// lifecycle (DESIGN.md §12).
std::atomic<std::uint64_t> g_exact_stat_scans{0};
}  // namespace

std::uint64_t exact_stat_scan_count() {
  return g_exact_stat_scans.load(std::memory_order_relaxed);
}

SliceFiberCounts count_slices_and_fibers(const SparseTensor& sorted,
                                         const ModeOrder& order) {
  BCSF_CHECK(order.size() == sorted.order(),
             "count_slices_and_fibers: bad mode order");
  SliceFiberCounts out;
  const offset_t m = sorted.nnz();
  if (m == 0) return out;

  const index_t root = order.front();
  const index_t n_modes = sorted.order();

  // A new fiber starts when any mode except the leaf changes; a new slice
  // starts when the root mode changes.
  auto same_fiber = [&](offset_t a, offset_t b) {
    for (index_t level = 0; level + 1 < n_modes; ++level) {
      if (sorted.coord(order[level], a) != sorted.coord(order[level], b)) {
        return false;
      }
    }
    return true;
  };

  offset_t slice_start = 0;
  offset_t fiber_start = 0;
  out.slice_index.push_back(sorted.coord(root, 0));
  out.slice_fiber_begin.push_back(0);
  for (offset_t z = 1; z <= m; ++z) {
    const bool end_of_data = (z == m);
    const bool new_fiber = end_of_data || !same_fiber(z - 1, z);
    const bool new_slice =
        end_of_data || sorted.coord(root, z) != sorted.coord(root, z - 1);
    if (new_fiber) {
      out.fiber_nnz.push_back(z - fiber_start);
      fiber_start = z;
    }
    if (new_slice) {
      out.slice_nnz.push_back(z - slice_start);
      slice_start = z;
      if (!end_of_data) {
        out.slice_index.push_back(sorted.coord(root, z));
        out.slice_fiber_begin.push_back(out.fiber_nnz.size());
      }
    }
  }
  out.slice_fiber_begin.push_back(out.fiber_nnz.size());
  return out;
}

namespace {

// Distribution summaries and §V slice classification from a completed
// slice/fiber scan.
void fill_mode_stats(ModeStats& s, const SliceFiberCounts& c) {
  s.num_slices = c.slice_nnz.size();
  s.num_fibers = c.fiber_nnz.size();
  s.nnz_per_slice = compute_stats(std::span<const offset_t>(c.slice_nnz));
  s.nnz_per_fiber = compute_stats(std::span<const offset_t>(c.fiber_nnz));

  offset_vec fibers_per_slice(s.num_slices);
  for (offset_t slc = 0; slc < s.num_slices; ++slc) {
    fibers_per_slice[slc] =
        c.slice_fiber_begin[slc + 1] - c.slice_fiber_begin[slc];
  }
  s.fibers_per_slice =
      compute_stats(std::span<const offset_t>(fibers_per_slice));

  offset_t singleton_slices = 0;
  offset_t csl_slices = 0;
  for (offset_t slc = 0; slc < s.num_slices; ++slc) {
    if (c.slice_nnz[slc] == 1) {
      ++singleton_slices;
      continue;  // classified as COO in HB-CSF, not CSL
    }
    bool all_singleton_fibers = true;
    for (offset_t f = c.slice_fiber_begin[slc]; f < c.slice_fiber_begin[slc + 1];
         ++f) {
      if (c.fiber_nnz[f] != 1) {
        all_singleton_fibers = false;
        break;
      }
    }
    if (all_singleton_fibers) ++csl_slices;
  }
  s.singleton_slice_fraction =
      static_cast<double>(singleton_slices) / static_cast<double>(s.num_slices);
  s.csl_slice_fraction =
      static_cast<double>(csl_slices) / static_cast<double>(s.num_slices);
}

}  // namespace

ModeStats compute_mode_stats(const SparseTensor& tensor, index_t mode) {
  ModeStats s;
  s.mode = mode;
  s.nnz = tensor.nnz();
  if (tensor.nnz() == 0) return s;
  g_exact_stat_scans.fetch_add(1, std::memory_order_relaxed);

  SparseTensor copy = tensor;
  const ModeOrder order = mode_order_for(mode, tensor.order());
  copy.sort(order);
  const SliceFiberCounts c = count_slices_and_fibers(copy, order);
  fill_mode_stats(s, c);
  return s;
}

std::vector<ModeStats> compute_all_mode_stats(const SparseTensor& tensor) {
  std::vector<ModeStats> all;
  all.reserve(tensor.order());
  for (index_t mode = 0; mode < tensor.order(); ++mode) {
    all.push_back(compute_mode_stats(tensor, mode));
  }
  return all;
}

std::string ModeStats::to_string() const {
  std::ostringstream os;
  os << "mode " << mode << ": nnz=" << nnz << " S=" << num_slices
     << " F=" << num_fibers << " nnz/slc{" << nnz_per_slice.to_string()
     << "} nnz/fbr{" << nnz_per_fiber.to_string() << "}"
     << " coo_frac=" << singleton_slice_fraction
     << " csl_frac=" << csl_slice_fraction;
  return os.str();
}

}  // namespace bcsf
