// Shared plumbing for the simulated GPU kernels: an address space with one
// region per logical array, an L2 cache pass, and flop/atomic counters.
//
// Only *row* accesses (factor-matrix rows and output rows) go through the
// cache model: index/value streams are perfectly sequential and prefetch
// to near-100% hit rates on real hardware, so they are folded into the
// fixed per-nonzero issue costs instead (this is what lets darpa's 23M-row
// leaf factor drive the simulated L2 hit rate to the single digits, as in
// Table II).
#pragma once

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"
#include "linalg/dense_matrix.hpp"
#include "util/types.hpp"

namespace bcsf {

/// Memoized SimReports for one immutable (sparsity structure, device,
/// schedule) triple, keyed by factor rank.
///
/// The whole cost model is value-independent: the launch geometry, the
/// per-warp cycle attribution, the L2 access sequence and the SM
/// scheduler all depend only on the index structure, the rank and the
/// device -- never on factor or tensor VALUES.  So for a fixed plan,
/// every execute at the same rank recomputes a bit-identical SimReport.
/// Each GPU plan (core/plans.cpp; F-COO excepted) owns one SimMemo: its
/// first execute per rank runs the simulated kernel and stores the
/// report, and every later execute runs the kernel's native walk
/// (kernels/native_walk.cpp, bitwise-equal output) and returns the
/// stored report.  The simulated kernels themselves know nothing of the
/// memo; the cost model is paid once per (plan, rank), not once per
/// request (DESIGN.md §8).
///
/// Owners must keep the underlying structure fixed for the memo's
/// lifetime (already the plan contract: plans are immutable snapshots of
/// their tensor).  Thread-safe; racing first executes simulate
/// redundantly and store identical values, so the race is benign.
class SimMemo {
 public:
  /// Copies the cached report for `rank` into `*out`; false if this rank
  /// has not been simulated yet (the caller must simulate and store()).
  bool find(rank_t rank, SimReport* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (entry.first == rank) {
        *out = entry.second;
        return true;
      }
    }
    return false;
  }

  void store(rank_t rank, const SimReport& report) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (entry.first == rank) return;  // benign race: identical values
    }
    entries_.emplace_back(rank, report);
  }

 private:
  mutable std::mutex mu_;
  // Tiny in practice: one entry per rank the owner has served (rank R
  // for MTTKRP/FIT traffic, rank 1 for TTV), so linear scan beats a map.
  std::vector<std::pair<rank_t, SimReport>> entries_;
};

class GpuKernelContext {
 public:
  explicit GpuKernelContext(const DeviceModel& device)
      : device_(device),
        cache_(device.l2_bytes, device.l2_line_bytes, device.l2_assoc) {}

  unsigned add_region(const std::string& name) {
    return space_.add_region(name);
  }

  /// Touches the `rank`-float row `row` of `region`; returns missed lines.
  unsigned touch_row(unsigned region, index_t row, rank_t rank) {
    const std::uint64_t bytes_per_row =
        static_cast<std::uint64_t>(rank) * sizeof(value_t);
    return cache_.access_range(space_.addr(region, row * bytes_per_row),
                               static_cast<unsigned>(bytes_per_row));
  }

  double l2_hit_rate_pct() const { return cache_.hit_rate_pct(); }
  const DeviceModel& device() const { return device_; }

 private:
  const DeviceModel& device_;
  AddressSpace space_;
  CacheSim cache_;
};

/// Registers one cache region per factor matrix plus one for the output
/// row space; returns the region ids (regions[m] for factor m,
/// regions.back() for the output).
inline std::vector<unsigned> register_factor_regions(GpuKernelContext& ctx,
                                                     index_t order_) {
  std::vector<unsigned> regions;
  regions.reserve(order_ + 1);
  for (index_t m = 0; m < order_; ++m) {
    regions.push_back(ctx.add_region("factor" + std::to_string(m)));
  }
  regions.push_back(ctx.add_region("output"));
  return regions;
}

}  // namespace bcsf
