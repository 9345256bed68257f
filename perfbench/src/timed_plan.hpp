// A pass-through TensorOpPlan that records a "core.execute" span around
// every call into the plan it wraps, and the "formats.build" span around
// the registry call that built it.  This is how the benchmark times plan
// work that happens inside the service and inside cpd_als without
// touching the library: the service takes it through
// ServeOptions::build_fn, cpd_als through the registry key below.
#pragma once

#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Registry key of the wrapped "hbcsf" format that cpd-batch hands to
/// cpd_als (registered at static-initialization time in timed_plan.cpp).
inline constexpr const char* kTimedHbcsf = "perfbench-hbcsf";

class TimedPlan final : public bcsf::TensorOpPlan {
 public:
  explicit TimedPlan(bcsf::PlanPtr inner);

  const std::string& resolved_format() const override {
    return inner_->resolved_format();
  }
  std::size_t storage_bytes() const override { return inner_->storage_bytes(); }
  bool is_gpu() const override { return inner_->is_gpu(); }
  std::string detail() const override { return inner_->detail(); }
  bcsf::PlanRunResult run(
      const std::vector<bcsf::DenseMatrix>& factors) const override;
  bcsf::OpResult execute(const bcsf::OpRequest& request) const override;

 private:
  bcsf::PlanPtr inner_;
};

/// Builds `format` through the registry and wraps it; a ServeOptions::
/// build_fn.
bcsf::PlanPtr timed_build(const std::string& format,
                          const bcsf::SparseTensor& tensor, bcsf::index_t mode,
                          const bcsf::PlanOptions& opts);

}  // namespace perfbench
