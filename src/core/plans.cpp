// Concrete TensorOpPlan implementations for every format/kernel pair in the
// library, each self-registering into the FormatRegistry.  This file is
// the ONLY place that knows which formats exist; everything above it
// (cpd, benches, examples, the enum shim) enumerates or looks up.
//
// To add a format: implement its plan class here (or in your own TU) and
// add one FormatRegistrar -- no consumer changes (DESIGN.md §4).
#include <cmath>
#include <iomanip>
#include <sstream>
#include <utility>

#include "core/auto_policy.hpp"
#include "core/format_registry.hpp"
#include "core/sharded_plan.hpp"
#include "formats/csf.hpp"
#include "formats/csl.hpp"
#include "formats/hbcsf.hpp"
#include "formats/hicoo.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/splatt.hpp"
#include "kernels/ttv_fit.hpp"
#include "util/timer.hpp"

namespace bcsf {

void ensure_builtin_plans_linked() {}  // linker anchor, see format_registry.cpp

namespace {

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

/// Wall-clock SimReport for real CPU kernels: `seconds` is measured, the
/// flop count uses the COO accounting (order x R per nonzero) so CPU and
/// GPU gflops columns are comparable.
SimReport cpu_report(const std::string& kernel, double seconds, index_t order,
                     offset_t nnz, rank_t rank) {
  SimReport r;
  r.kernel = kernel;
  r.seconds = seconds;
  r.total_flops =
      static_cast<double>(order) * rank * static_cast<double>(nnz);
  r.gflops = seconds > 0.0 ? r.total_flops / seconds / 1e9 : 0.0;
  return r;
}

template <typename Derived>
class GpuPlanBase : public TensorOpPlan {
 public:
  GpuPlanBase(std::string format, std::string display, index_t mode,
              DeviceModel device)
      : TensorOpPlan(std::move(format), std::move(display), mode),
        device_(device) {}
  bool is_gpu() const override { return true; }

 protected:
  DeviceModel device_;
};

/// GPU plans whose kernel has a native walk twin.  The cost model is
/// paid once per rank: the first call at a rank runs `simulate` (the
/// costed kernel) and stores its report; every later call runs `walk`
/// (the kernel's bitwise-equal native walk) and returns the stored
/// report (SimMemo, kernels/gpu_common.hpp).
template <typename Derived>
class MemoizedGpuPlan : public GpuPlanBase<Derived> {
 public:
  using GpuPlanBase<Derived>::GpuPlanBase;

 protected:
  template <typename Simulate, typename Walk>
  PlanRunResult memoized(const std::vector<DenseMatrix>& factors,
                         Simulate simulate, Walk walk) const {
    SimReport cached;
    if (!factors.empty() && memo_.find(factors.front().cols(), &cached)) {
      return {walk(), std::move(cached)};
    }
    GpuMttkrpResult r = simulate();
    memo_.store(r.output.cols(), r.report);
    return {std::move(r.output), std::move(r.report)};
  }

 private:
  // The plan's structure is immutable, so its reports are too.
  mutable SimMemo memo_;
};

// ---------------------------------------------------------------------------
// Simulated GPU plans
// ---------------------------------------------------------------------------

class GpuCsfPlan final : public MemoizedGpuPlan<GpuCsfPlan> {
 public:
  GpuCsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : MemoizedGpuPlan("gpu-csf", "GPU-CSF", mode, o.device),
        unsplit_(build_bcsf(t, mode, unsplit_bcsf_options())) {}
  // The CSF index only, as for bcsf: the block list and fiber
  // coordinates are schedule, not index (DESIGN.md §2).
  std::size_t storage_bytes() const override {
    return unsplit_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return memoized(
        f, [&] { return mttkrp_csf_gpu(unsplit_, f, device_); },
        [&] { return mttkrp_bcsf_walk(unsplit_, f); });
  }

 private:
  BcsfTensor unsplit_;  // plain CSF's schedule: one block per slice
};

class BcsfPlan final : public MemoizedGpuPlan<BcsfPlan> {
 public:
  BcsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : MemoizedGpuPlan("bcsf", "B-CSF", mode, o.device),
        bcsf_(build_bcsf(t, mode, o.bcsf)) {}
  std::size_t storage_bytes() const override {
    return bcsf_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return memoized(
        f, [&] { return mttkrp_bcsf_gpu(bcsf_, f, device_); },
        [&] { return mttkrp_bcsf_walk(bcsf_, f); });
  }

 private:
  BcsfTensor bcsf_;
};

class CslPlan final : public MemoizedGpuPlan<CslPlan> {
 public:
  CslPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : MemoizedGpuPlan("csl", "CSL", mode, o.device),
        csl_(build_csl(t, mode)) {}
  std::size_t storage_bytes() const override {
    return csl_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return memoized(
        f, [&] { return mttkrp_csl_gpu(csl_, f, device_); },
        [&] { return mttkrp_csl_walk(csl_, f, device_); });
  }

 private:
  CslTensor csl_;
};

class HbcsfPlan final : public MemoizedGpuPlan<HbcsfPlan> {
 public:
  HbcsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : MemoizedGpuPlan("hbcsf", "HB-CSF", mode, o.device),
        hb_(build_hbcsf(t, mode, o.bcsf)) {}
  std::size_t storage_bytes() const override {
    return hb_.index_storage_bytes();
  }
  std::string detail() const override {
    const double m = std::max<double>(1.0, static_cast<double>(hb_.nnz()));
    std::ostringstream os;
    os << "coo/csl/csf nnz % = " << std::fixed << std::setprecision(0)
       << 100.0 * hb_.coo_nnz() / m << "/" << 100.0 * hb_.csl_nnz() / m << "/"
       << 100.0 * hb_.csf_nnz() / m;
    return os.str();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return memoized(
        f, [&] { return mttkrp_hbcsf_gpu(hb_, f, device_); },
        [&] { return mttkrp_hbcsf_walk(hb_, f, device_); });
  }

 private:
  HbcsfTensor hb_;
};

// COO's format IS the source tensor, so the COO-family plans reference
// it instead of copying: construction stays free (the paper's
// zero-preprocessing COO, Figs. 9/10) and no O(nnz) memory is
// duplicated.  The registry contract makes the caller keep the tensor
// alive -- and, for the memoized report, unchanged -- for the plan's
// lifetime (serving snapshots are versioned, never edited in place).
class GpuCooPlan final : public MemoizedGpuPlan<GpuCooPlan> {
 public:
  GpuCooPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : MemoizedGpuPlan("coo", "ParTI-COO", mode, o.device), tensor_(&t) {}
  std::size_t storage_bytes() const override {
    return tensor_->index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return memoized(
        f, [&] { return mttkrp_coo_gpu(*tensor_, mode(), f, device_); },
        [&] { return mttkrp_coo_walk(*tensor_, mode(), f); });
  }

 private:
  const SparseTensor* tensor_;
};

// F-COO's segmented scan has no walk twin: it simulates on every call.
class FcooPlan final : public GpuPlanBase<FcooPlan> {
 public:
  FcooPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("fcoo", "F-COO", mode, o.device),
        fcoo_(build_fcoo(t, mode, o.fcoo)) {}
  std::size_t storage_bytes() const override {
    return fcoo_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    GpuMttkrpResult r = mttkrp_fcoo_gpu(fcoo_, f, device_);
    return {std::move(r.output), std::move(r.report)};
  }

 private:
  FcooTensor fcoo_;
};

// ---------------------------------------------------------------------------
// Real CPU plans (OpenMP kernels, wall-clock reports)
// ---------------------------------------------------------------------------

// The two COO CPU plans override execute() with the fused kernels from
// kernels/ttv_fit.hpp: TTV drops the rank machinery entirely and FIT
// never materializes the MTTKRP matrix, instead of riding the generic
// rank-1 / contract-after-run path every other format uses.  The shared
// dispatch lives here, parameterized on the two kernels: TTV as a
// callable over the vectors (CPU-COO's runs on its pre-grouped copy),
// FIT as a flat pass over `tensor`.
using FitKernel = double (*)(const SparseTensor&,
                             const std::vector<DenseMatrix>&,
                             const std::vector<value_t>*);

template <typename Ttv>
OpResult coo_family_execute(const TensorOpPlan& plan,
                            const SparseTensor& tensor, const OpRequest& req,
                            Ttv ttv, FitKernel fit) {
  OpResult res;
  Timer t;
  switch (req.kind) {
    case OpKind::kTtv:
      res.output = ttv(*req.factors);
      res.report = cpu_report(plan.display_name(), t.seconds(),
                              tensor.order(), tensor.nnz(), 1);
      break;
    case OpKind::kFit:
      res.scalar = fit(tensor, *req.factors, req.lambda);
      res.report = cpu_report(plan.display_name(), t.seconds(),
                              tensor.order(), tensor.nnz(),
                              req.factors->front().cols());
      break;
    case OpKind::kMttkrp:
    case OpKind::kStats:
      break;  // MTTKRP rides the base path; kStats never reaches plans
  }
  return res;
}

class ReferencePlan final : public TensorOpPlan {
 public:
  ReferencePlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : TensorOpPlan("reference", "Reference-COO", mode), tensor_(&t) {}
  bool is_gpu() const override { return false; }
  std::size_t storage_bytes() const override {
    return tensor_->index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    Timer t;
    DenseMatrix out = mttkrp_reference(*tensor_, mode(), f);
    const rank_t rank = out.cols();
    return {std::move(out), cpu_report(display_name(), t.seconds(),
                                       tensor_->order(), tensor_->nnz(), rank)};
  }
  OpResult execute(const OpRequest& req) const override {
    if (req.kind == OpKind::kMttkrp) return TensorOpPlan::execute(req);
    check_request(req);
    return coo_family_execute(
        *this, *tensor_, req,
        [&](const std::vector<DenseMatrix>& v) {
          return ttv_reference(*tensor_, mode(), v);
        },
        fit_inner_reference);
  }

 private:
  const SparseTensor* tensor_;
};

// Unlike the other COO plans, CPU-COO owns a copy: nonzeros sorted and
// grouped by output row once at build, so threads own whole slices and
// no call re-sorts the tensor.
class CpuCooPlan final : public TensorOpPlan {
 public:
  CpuCooPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : TensorOpPlan("cpu-coo", "CPU-COO", mode),
        coo_(group_coo_slices(t, mode)) {}
  bool is_gpu() const override { return false; }
  std::size_t storage_bytes() const override {
    return coo_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    Timer t;
    DenseMatrix out = mttkrp_coo_cpu(coo_, f);
    const rank_t rank = out.cols();
    return {std::move(out), cpu_report(display_name(), t.seconds(),
                                       coo_.sorted.order(), coo_.sorted.nnz(),
                                       rank)};
  }
  OpResult execute(const OpRequest& req) const override {
    if (req.kind == OpKind::kMttkrp) return TensorOpPlan::execute(req);
    check_request(req);
    return coo_family_execute(
        *this, coo_.sorted, req,
        [&](const std::vector<DenseMatrix>& v) { return ttv_coo_cpu(coo_, v); },
        fit_inner_coo_cpu);
  }

 private:
  CooSlices coo_;
};

class CpuCsfPlan final : public TensorOpPlan {
 public:
  CpuCsfPlan(const SparseTensor& t, index_t mode, const PlanOptions&,
             index_t tiles = 0)
      : TensorOpPlan(tiles ? "cpu-csf-tiled" : "cpu-csf",
                   tiles ? "SPLATT-tiled" : "SPLATT", mode),
        csf_(build_csf(t, mode)),
        tiles_(tiles) {}
  bool is_gpu() const override { return false; }
  std::size_t storage_bytes() const override {
    return csf_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    Timer t;
    DenseMatrix out = tiles_ ? mttkrp_csf_cpu_tiled(csf_, f, tiles_)
                             : mttkrp_csf_cpu(csf_, f);
    const rank_t rank = out.cols();
    return {std::move(out), cpu_report(display_name(), t.seconds(),
                                       csf_.order(), csf_.nnz(), rank)};
  }

 private:
  CsfTensor csf_;
  index_t tiles_;
};

class CpuCslPlan final : public TensorOpPlan {
 public:
  CpuCslPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : TensorOpPlan("cpu-csl", "CPU-CSL", mode), csl_(build_csl(t, mode)) {}
  bool is_gpu() const override { return false; }
  std::size_t storage_bytes() const override {
    return csl_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    Timer t;
    DenseMatrix out = mttkrp_csl_cpu(csl_, f);
    const rank_t rank = out.cols();
    return {std::move(out), cpu_report(display_name(), t.seconds(),
                                       csl_.order(), csl_.nnz(), rank)};
  }

 private:
  CslTensor csl_;
};

class CpuHicooPlan final : public TensorOpPlan {
 public:
  CpuHicooPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : TensorOpPlan("cpu-hicoo", "HiCOO", mode),
        order_(t.order()),
        hicoo_(build_hicoo(t)) {}
  bool is_gpu() const override { return false; }
  std::size_t storage_bytes() const override {
    return hicoo_.index_storage_bytes();
  }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    Timer t;
    DenseMatrix out = mttkrp_hicoo_cpu(hicoo_, mode(), f);
    const rank_t rank = out.cols();
    return {std::move(out), cpu_report(display_name(), t.seconds(), order_,
                                       hicoo_.nnz(), rank)};
  }

 private:
  index_t order_;
  HicooTensor hicoo_;
};

// ---------------------------------------------------------------------------
// The `auto` meta plan: decide per §V + Fig-10, then delegate
// ---------------------------------------------------------------------------

class AutoPlan final : public TensorOpPlan {
 public:
  AutoPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : TensorOpPlan("auto", "Auto", mode) {
    AutoPolicyOptions policy;
    policy.expected_mttkrp_calls = o.expected_mttkrp_calls;
    // Op-aware resolution: a TTV-dominated workload amortizes builds ~R x
    // slower, so "auto" may pick COO where full-rank traffic picks B-CSF.
    policy.op = o.op;
    decision_ = auto_select_format(t, mode, policy);
    inner_ = FormatRegistry::instance().create(decision_.format, t, mode, o);
  }
  bool is_gpu() const override { return inner_->is_gpu(); }
  const std::string& resolved_format() const override {
    return inner_->format();
  }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::string detail() const override { return decision_.to_string(); }
  const AutoDecision& decision() const { return decision_; }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return inner_->run(f);
  }
  OpResult execute(const OpRequest& req) const override {
    return inner_->execute(req);  // delegate fused paths, not just run()
  }

 private:
  AutoDecision decision_;
  PlanPtr inner_;
};

// ---------------------------------------------------------------------------
// Registrations
// ---------------------------------------------------------------------------

template <typename Plan>
FormatRegistry::Factory make() {
  return [](const SparseTensor& t, index_t mode, const PlanOptions& o) {
    return PlanPtr(new Plan(t, mode, o));
  };
}

using E = FormatRegistry::Entry;

FormatRegistrar r_gpu_csf{
    {"gpu-csf", "GPU-CSF", "plain CSF, one block per slice (§IV baseline)",
     PlanKind::kGpu, true, make<GpuCsfPlan>()}};
FormatRegistrar r_bcsf{
    {"bcsf", "B-CSF", "balanced CSF with fbr-/slc-split (§IV)",
     PlanKind::kGpu, true, make<BcsfPlan>()}};
FormatRegistrar r_csl{
    {"csl", "CSL", "compressed slices, one warp per slice (§V-A)",
     PlanKind::kGpu, true, make<CslPlan>()}};
FormatRegistrar r_hbcsf{
    {"hbcsf", "HB-CSF", "hybrid COO+CSL+B-CSF slice routing (§V)",
     PlanKind::kGpu, true, make<HbcsfPlan>()}};
FormatRegistrar r_coo{
    {"coo", "ParTI-COO", "thread per nonzero, global atomics [18]",
     PlanKind::kGpu, false, make<GpuCooPlan>()}};
FormatRegistrar r_fcoo{
    {"fcoo", "F-COO", "flagged COO with segmented scan [17]",
     PlanKind::kGpu, true, make<FcooPlan>()}};

FormatRegistrar r_reference{
    {"reference", "Reference-COO", "sequential double-accumulation ground truth",
     PlanKind::kCpu, false, make<ReferencePlan>()}};
FormatRegistrar r_cpu_coo{
    {"cpu-coo", "CPU-COO", "OpenMP COO over slices grouped at build (Alg. 2)",
     PlanKind::kCpu, false, make<CpuCooPlan>()}};
FormatRegistrar r_cpu_csf{
    {"cpu-csf", "SPLATT", "OpenMP CSF, parallel over slices (Alg. 3)",
     PlanKind::kCpu, true, make<CpuCsfPlan>()}};
FormatRegistrar r_cpu_csf_tiled{
    {"cpu-csf-tiled", "SPLATT-tiled", "cache-blocked OpenMP CSF (4 tiles)",
     PlanKind::kCpu, true,
     [](const SparseTensor& t, index_t mode, const PlanOptions& o) {
       return PlanPtr(new CpuCsfPlan(t, mode, o, 4));
     }}};
FormatRegistrar r_cpu_csl{
    {"cpu-csl", "CPU-CSL", "OpenMP CSL, parallel over slices (Alg. 4)",
     PlanKind::kCpu, true, make<CpuCslPlan>()}};
FormatRegistrar r_cpu_hicoo{
    {"cpu-hicoo", "HiCOO", "blocked COO with compressed offsets [13]",
     PlanKind::kCpu, false, make<CpuHicooPlan>()}};

FormatRegistrar r_auto{
    {"auto", "Auto", "picks COO/CSL/B-CSF/HB-CSF per §V + Fig-10 break-even",
     PlanKind::kMeta, true, make<AutoPlan>()}};

// Implemented in core/sharded_plan.cpp; registered here so this file
// stays the one catalogue of existing formats (and the linker anchor
// keeps the entry alive in static-archive consumers).
FormatRegistrar r_sharded{
    {"sharded", "Sharded",
     "K nnz-balanced slice-range shards, one inner plan each (§8)",
     PlanKind::kMeta, true, make<ShardedPlan>()}};

}  // namespace
}  // namespace bcsf
