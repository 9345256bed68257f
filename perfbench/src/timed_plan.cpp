#include "timed_plan.hpp"

#include "spans.hpp"

namespace perfbench {

TimedPlan::TimedPlan(bcsf::PlanPtr inner)
    : bcsf::TensorOpPlan(inner->format(), inner->display_name(),
                         inner->mode()),
      inner_(std::move(inner)) {}

bcsf::PlanRunResult TimedPlan::run(
    const std::vector<bcsf::DenseMatrix>& factors) const {
  SpanRecorder& spans = SpanRecorder::instance();
  if (!spans.on()) return inner_->run(factors);
  const auto [parent, request] = spans.parent_of(&factors);
  const auto start = Clock::now();
  bcsf::PlanRunResult result = inner_->run(factors);
  spans.add("core.execute", start, Clock::now(), parent, request);
  return result;
}

bcsf::OpResult TimedPlan::execute(const bcsf::OpRequest& request) const {
  SpanRecorder& spans = SpanRecorder::instance();
  if (!spans.on()) return inner_->execute(request);
  const auto [parent, req] = spans.parent_of(request.factors);
  const auto start = Clock::now();
  bcsf::OpResult result = inner_->execute(request);
  spans.add("core.execute", start, Clock::now(), parent, req);
  return result;
}

bcsf::PlanPtr timed_build(const std::string& format,
                          const bcsf::SparseTensor& tensor, bcsf::index_t mode,
                          const bcsf::PlanOptions& opts) {
  const auto start = Clock::now();
  bcsf::PlanPtr plan =
      bcsf::FormatRegistry::instance().create(format, tensor, mode, opts);
  SpanRecorder& spans = SpanRecorder::instance();
  if (spans.on()) {
    const auto [parent, request] = spans.parent_of(nullptr);
    spans.add("formats.build", start, Clock::now(), parent, request, 0,
              static_cast<double>(plan->storage_bytes()));
  }
  return std::make_unique<TimedPlan>(std::move(plan));
}

namespace {
const bcsf::FormatRegistrar kRegisterTimedHbcsf{
    {kTimedHbcsf, "HB-CSF", "hbcsf behind the perfbench timing wrapper",
     bcsf::PlanKind::kGpu, true,
     [](const bcsf::SparseTensor& tensor, bcsf::index_t mode,
        const bcsf::PlanOptions& opts) {
       return timed_build("hbcsf", tensor, mode, opts);
     }}};
}  // namespace

}  // namespace perfbench
