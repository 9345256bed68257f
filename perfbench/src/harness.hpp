// Shared pieces of the perfbench harness: clocks, sample statistics, the
// exact-grid workload data, and the metric record the program prints.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bcsf/bcsf.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 100]) over a copy of the sample.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Peak resident set of this process so far, in MB (ru_maxrss is KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One printed metric: value plus unit, keyed by its BENCHMARK.json name.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(): the metrics of the selected
/// mode (end-to-end or per-layer) and the answer-check tallies.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< refused, errored or wrong
  std::uint64_t wrong = 0;   ///< answers that differ from the reference
  std::vector<std::string> notes;  ///< human-readable lines for stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;      ///< where spans are written at exit
};

// ---------------------------------------------------------------------------
// Exact-grid data.  Tensor values are multiples of 0.5 and factor entries
// multiples of 0.25 in [-1, 1] (the grid of serve_throughput's tenant
// mode).  Every kernel term is then a multiple of 2^-5 and every partial
// sum of these workloads stays far inside float's exact range, so every
// format, shard split and accumulation order yields the same bits.
// ---------------------------------------------------------------------------

/// Seed of every workload tensor's sparsity structure.  A workload is one
/// structure, like a dataset; --seed draws its values, factors and
/// traffic.  Across structure seeds a 200k-nnz power-law tensor's plan
/// bytes move ~7% and its throughput ~12%, more than any bound could
/// absorb, so the structure does not follow --seed.
inline constexpr std::uint64_t kStructureSeed = 42;

/// Replaces every value with one of {1, 1.5, 2, 2.5, 3}.
inline void put_on_grid(bcsf::SparseTensor& t, std::uint64_t seed) {
  bcsf::Rng rng(seed);
  for (auto& v : t.values()) {
    v = 1.0F + 0.5F * static_cast<bcsf::value_t>(rng.uniform(0, 4));
  }
}

/// dims[m] x cols matrices with entries in {-1, -0.75, ..., 1}.
inline std::vector<bcsf::DenseMatrix> grid_factors(
    const std::vector<bcsf::index_t>& dims, bcsf::rank_t cols,
    std::uint64_t seed) {
  bcsf::Rng rng(seed);
  std::vector<bcsf::DenseMatrix> out;
  for (bcsf::index_t d : dims) {
    bcsf::DenseMatrix f(d, cols);
    for (auto& v : f.data()) {
      v = 0.25F * (static_cast<bcsf::value_t>(rng.uniform(0, 8)) - 4.0F);
    }
    out.push_back(std::move(f));
  }
  return out;
}

/// The update-mix tensor: power-law slices and fibers
/// (alpha 0.8, fibers capped at 64) over {400, 600, 800}, ~200k nnz.
inline bcsf::SparseTensor steady_tensor(std::uint64_t seed) {
  bcsf::PowerLawConfig cfg;
  cfg.dims = {400, 600, 800};
  cfg.target_nnz = 200000;
  cfg.slice_alpha = 0.8;
  cfg.fiber_alpha = 0.8;
  cfg.max_fiber_len = 64;
  cfg.seed = kStructureSeed;
  bcsf::SparseTensor t = bcsf::generate_power_law(cfg);
  put_on_grid(t, seed);
  return t;
}

}  // namespace perfbench
