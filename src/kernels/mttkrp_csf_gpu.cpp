// Plain GPU-CSF kernel: the direct CPU-to-GPU port of SPLATT's CSF
// MTTKRP that §IV uses as the starting point.  One thread block per
// slice, whole fibers per warp, no splitting -- so a heavy fiber pins a
// warp and a heavy slice pins a block, producing exactly the Table II
// imbalance signatures (nell2 and darpa in particular).
#include "kernels/bcsf_engine.hpp"
#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

GpuMttkrpResult mttkrp_csf_gpu(const CsfTensor& csf,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device) {
  return mttkrp_csf_gpu(build_bcsf_from_csf(csf, unsplit_bcsf_options()),
                        factors, device);
}

GpuMttkrpResult mttkrp_csf_gpu(const BcsfTensor& unsplit,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device) {
  BCSF_CHECK(!unsplit.options().fiber_split && !unsplit.options().slice_split,
             "mttkrp_csf_gpu: expected an unsplit B-CSF "
             "(unsplit_bcsf_options())");
  return detail::run_bcsf_engine(unsplit, factors, device, "csf-gpu");
}

}  // namespace bcsf
