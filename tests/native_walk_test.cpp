// GPU plans answer their first call at a rank with the simulated kernel
// and every later call with the kernel's native walk
// (kernels/native_walk.cpp) plus the memoized report.  These tests pin
// that the switch is invisible: on real-valued (non-grid) tensors, where
// any change in float statement order shows up in the low bits, every
// plan's output is bitwise-equal to a direct call of its simulated
// kernel, for MTTKRP, TTV and FIT, and the repeat call's report equals
// the first one field by field.
//
// ctest runs this binary twice -- with OMP_NUM_THREADS=1 and with the
// default thread count -- so both the serial and the parallel walk are
// pinned.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "serve_test_util.hpp"
#include "util/thread_pool.hpp"

namespace bcsf {
namespace {

using serve_test::bitwise_equal;
using Simulate =
    std::function<GpuMttkrpResult(const std::vector<DenseMatrix>&)>;

struct Case {
  std::string name;
  SparseTensor tensor;
};

PowerLawConfig power_law(std::vector<index_t> dims, offset_t nnz,
                         std::uint64_t seed) {
  PowerLawConfig c;
  c.dims = std::move(dims);
  c.target_nnz = nnz;
  c.slice_alpha = 0.8;
  c.max_slice_frac = 0.05;
  c.fiber_alpha = 1.0;
  c.max_fiber_len = 300;
  c.seed = seed;
  return c;
}

/// Power law with singleton slices (HB-CSF's COO group), all-singleton-
/// fiber slices (its CSL group) and long fibers (its B-CSF group).
PowerLawConfig mixed_groups(std::vector<index_t> dims, std::uint64_t seed) {
  PowerLawConfig c = power_law(std::move(dims), 12000, seed);
  c.fiber_alpha = 2.5;
  c.singleton_slice_frac = 0.15;
  return c;
}

std::vector<Case> cases() {
  return {
      {"uniform3", generate_uniform({300, 200, 250}, 12000, 11)},
      {"uniform4", generate_uniform({60, 50, 40, 70}, 10000, 12)},
      {"power_law3", generate_power_law(power_law({400, 300, 500}, 15000, 13))},
      {"power_law4",
       generate_power_law(power_law({120, 80, 60, 90}, 12000, 14))},
      {"mixed3", generate_power_law(mixed_groups({3000, 400, 500}, 15))},
      {"mixed4", generate_power_law(mixed_groups({2000, 60, 50, 70}, 16))},
  };
}

/// A device whose CSL warp segments are short, so CSL slices split into
/// several segments and the split-slice statement order is exercised.
DeviceModel test_device() {
  DeviceModel d = DeviceModel::tiny(4, 16);
  d.csl_segment_nnz = 24.0;
  return d;
}

/// The simulated kernel each plan format must match, built from the
/// same tensor and mode as the plan.
Simulate simulated_kernel(const std::string& format, const SparseTensor& x,
                          index_t mode, const PlanOptions& o) {
  const DeviceModel d = o.device;
  if (format == "gpu-csf") {
    auto csf = std::make_shared<CsfTensor>(build_csf(x, mode));
    return [csf, d](const auto& f) { return mttkrp_csf_gpu(*csf, f, d); };
  }
  if (format == "bcsf") {
    auto b = std::make_shared<BcsfTensor>(build_bcsf(x, mode, o.bcsf));
    return [b, d](const auto& f) { return mttkrp_bcsf_gpu(*b, f, d); };
  }
  if (format == "csl") {
    auto c = std::make_shared<CslTensor>(build_csl(x, mode));
    return [c, d](const auto& f) { return mttkrp_csl_gpu(*c, f, d); };
  }
  if (format == "hbcsf") {
    auto h = std::make_shared<HbcsfTensor>(build_hbcsf(x, mode, o.bcsf));
    return [h, d](const auto& f) { return mttkrp_hbcsf_gpu(*h, f, d); };
  }
  return [&x, mode, d](const auto& f) { return mttkrp_coo_gpu(x, mode, f, d); };
}

void expect_same_report(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.total_flops, b.total_flops);
  EXPECT_EQ(a.sm_efficiency_pct, b.sm_efficiency_pct);
  EXPECT_EQ(a.achieved_occupancy_pct, b.achieved_occupancy_pct);
  EXPECT_EQ(a.l2_hit_rate_pct, b.l2_hit_rate_pct);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.num_warps, b.num_warps);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
}

const std::vector<std::string> kFormats = {"gpu-csf", "bcsf", "csl", "hbcsf",
                                           "coo"};

class NativeWalk : public ::testing::TestWithParam<int> {};

TEST_P(NativeWalk, PlansMatchSimulatedKernelsBitwise) {
  const Case c = cases()[GetParam()];
  const SparseTensor& x = c.tensor;
  PlanOptions opts;
  opts.device = test_device();
  for (const std::string& format : kFormats) {
    for (index_t mode = 0; mode < x.order(); ++mode) {
      SCOPED_TRACE(format + " mode " + std::to_string(mode));
      const Simulate simulate = simulated_kernel(format, x, mode, opts);
      const PlanPtr plan =
          FormatRegistry::instance().create(format, x, mode, opts);

      // TTV first, on the fresh plan: rank-1 simulation, then the walk.
      const auto vectors = make_random_factors(x.dims(), 1, 90 + mode, -1.0F,
                                               1.0F);
      OpRequest ttv;
      ttv.kind = OpKind::kTtv;
      ttv.mode = mode;
      ttv.factors = &vectors;
      const GpuMttkrpResult ttv_sim = simulate(vectors);
      const OpResult ttv_first = plan->execute(ttv);
      const OpResult ttv_repeat = plan->execute(ttv);
      EXPECT_TRUE(bitwise_equal(ttv_sim.output, ttv_first.output));
      EXPECT_TRUE(bitwise_equal(ttv_sim.output, ttv_repeat.output));
      expect_same_report(ttv_first.report, ttv_repeat.report);

      for (rank_t rank : {rank_t{1}, rank_t{8}, rank_t{16}, rank_t{32}}) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        const auto factors =
            make_random_factors(x.dims(), rank, 100 + rank, -1.0F, 1.0F);
        const GpuMttkrpResult sim = simulate(factors);
        const PlanRunResult first = plan->run(factors);
        const PlanRunResult repeat = plan->run(factors);
        EXPECT_TRUE(bitwise_equal(sim.output, first.output));
        EXPECT_TRUE(bitwise_equal(sim.output, repeat.output));
        expect_same_report(sim.report, first.report);
        expect_same_report(first.report, repeat.report);
      }

      // FIT contracts the MTTKRP output, so the warm plan (walk) and a
      // fresh plan (simulation) must agree exactly.
      const auto factors = make_random_factors(x.dims(), 16, 116, -1.0F, 1.0F);
      const std::vector<value_t> lambda(16, 0.75F);
      OpRequest fit;
      fit.kind = OpKind::kFit;
      fit.mode = mode;
      fit.factors = &factors;
      fit.lambda = &lambda;
      const PlanPtr fresh =
          FormatRegistry::instance().create(format, x, mode, opts);
      const OpResult fit_sim = fresh->execute(fit);
      const OpResult fit_walk = plan->execute(fit);
      EXPECT_EQ(fit_sim.scalar, fit_walk.scalar);
      expect_same_report(fit_sim.report, fit_walk.report);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tensors, NativeWalk, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return cases()[info.param].name;
                         });

TEST(NativeWalk, MixedTensorsPopulateEveryHbcsfGroup) {
  for (const Case& c : cases()) {
    if (c.name.rfind("mixed", 0) != 0) continue;
    SCOPED_TRACE(c.name);
    const HbcsfTensor h = build_hbcsf(c.tensor, 0);
    EXPECT_GT(h.coo_nnz(), 0u);
    EXPECT_GT(h.csl_nnz(), 0u);
    EXPECT_GT(h.csf_nnz(), 0u);
  }
}

// The walk is serial on ThreadPool workers and parallel elsewhere; both
// must give the same bits (the serving path runs on workers, CPD-ALS on
// the caller's thread).
TEST(NativeWalk, PlanInsidePoolTaskMatchesOutside) {
  const SparseTensor x = generate_power_law(mixed_groups({3000, 400, 500}, 31));
  const auto factors = make_random_factors(x.dims(), 16, 32, -1.0F, 1.0F);
  PlanOptions opts;
  opts.device = test_device();
  ThreadPool pool(2);
  for (const std::string& format : kFormats) {
    SCOPED_TRACE(format);
    const PlanPtr plan = FormatRegistry::instance().create(format, x, 0, opts);
    plan->run(factors);  // pay the simulation; both calls below walk
    const DenseMatrix outside = plan->run(factors).output;
    std::future<DenseMatrix> inside = pool.async([&] {
      EXPECT_TRUE(ThreadPool::on_worker_thread());
      return plan->run(factors).output;
    });
    EXPECT_TRUE(bitwise_equal(outside, inside.get()));
  }
}

}  // namespace
}  // namespace bcsf
