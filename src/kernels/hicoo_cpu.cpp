// HiCOO MTTKRP on CPUs [13] (Fig. 13 baseline): block-by-block execution
// with conflict-free scheduling -- blocks are grouped by their output-mode
// block coordinate, so two threads never update the same output block row
// (this stands in for HiCOO's privatization scheme).
#include <algorithm>
#include <numeric>
#include <vector>

#include "kernels/mttkrp.hpp"
#include "kernels/omp_threads.hpp"
#include "util/error.hpp"

namespace bcsf {

DenseMatrix mttkrp_hicoo_cpu(const HicooTensor& hicoo, index_t mode,
                             const std::vector<DenseMatrix>& factors) {
  check_factors(hicoo.dims(), factors);
  BCSF_CHECK(mode < hicoo.order(), "mttkrp_hicoo_cpu: bad mode");
  const rank_t rank = factors.front().cols();
  DenseMatrix out(hicoo.dims()[mode], rank);
  const offset_t nb = hicoo.num_blocks();

  std::vector<offset_t> block_order(nb);
  std::iota(block_order.begin(), block_order.end(), offset_t{0});
  std::stable_sort(block_order.begin(), block_order.end(),
                   [&](offset_t a, offset_t b) {
                     return hicoo.block_coord(mode, a) <
                            hicoo.block_coord(mode, b);
                   });
  std::vector<offset_t> group_start;
  for (offset_t i = 0; i < nb; ++i) {
    if (i == 0 || hicoo.block_coord(mode, block_order[i]) !=
                      hicoo.block_coord(mode, block_order[i - 1])) {
      group_start.push_back(i);
    }
  }
  group_start.push_back(nb);
  const std::int64_t n_groups =
      static_cast<std::int64_t>(group_start.size()) - 1;

#pragma omp parallel num_threads(kernel_threads())
  {
    std::vector<value_t> prod(rank);
#pragma omp for schedule(dynamic, 4)
    for (std::int64_t g = 0; g < n_groups; ++g) {
      for (offset_t i = group_start[g]; i < group_start[g + 1]; ++i) {
        const offset_t b = block_order[i];
        for (offset_t z = hicoo.block_begin(b); z < hicoo.block_end(b); ++z) {
          const value_t v = hicoo.value(z);
          for (rank_t r = 0; r < rank; ++r) prod[r] = v;
          for (index_t f = 0; f < hicoo.order(); ++f) {
            if (f == mode) continue;
            const auto row = factors[f].row(hicoo.coord(f, b, z));
            for (rank_t r = 0; r < rank; ++r) prod[r] *= row[r];
          }
          auto yrow = out.row(hicoo.coord(mode, b, z));
          for (rank_t r = 0; r < rank; ++r) yrow[r] += prod[r];
        }
      }
    }
  }
  return out;
}

}  // namespace bcsf
