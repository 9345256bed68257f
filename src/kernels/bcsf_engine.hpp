// Internal: the shared B-CSF execution engine.  The plain GPU-CSF kernel
// (Table II's strawman) is the same engine run on an unsplit B-CSF, so
// both public kernels funnel here.
#pragma once

#include <string>
#include <vector>

#include "formats/bcsf.hpp"
#include "gpusim/device.hpp"
#include "kernels/mttkrp.hpp"

namespace bcsf::detail {

GpuMttkrpResult run_bcsf_engine(const BcsfTensor& bcsf,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device,
                                const std::string& kernel_name,
                                OutputCombine combine = OutputCombine::kPerFiber);

}  // namespace bcsf::detail
