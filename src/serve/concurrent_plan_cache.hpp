// Thread-safe memoized plan construction keyed by (format, mode, op):
// the PlanCache contract of DESIGN.md §2 made safe for the serving layer
// (DESIGN.md §5) and op-aware (§7).
//
// Two guarantees beyond the single-threaded cache it replaces:
//
//  * Single-flight builds.  N threads requesting the same key trigger
//    exactly ONE factory call; the winner builds outside any lock
//    while the others block on a shared_future for that key.  Reads of
//    already-built plans take only a shared lock.  A build that throws is
//    evicted so a later request can retry.
//
// The op component exists for META formats only: "auto" resolves its
// delegate per op (a TTV workload amortizes builds ~R x slower), so
// get("auto", m, kTtv) and get("auto", m, kMttkrp) are distinct slots.
// For concrete formats the built structure serves EVERY op -- that
// amortization is the point of the op-generic plan layer -- so the op
// component is canonicalized to kMttkrp and all ops share one build.
//
//  * Tensor lifetime.  The cache holds the source tensor by shared_ptr
//    and pins that shared_ptr into the deleter of every plan it hands
//    out.  COO-family plans reference the tensor instead of copying it
//    (DESIGN.md §2); with this pinning a plan retained past the cache --
//    or past the caller's own tensor handle -- can never dangle.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/format_registry.hpp"
#include "core/tensor_op_plan.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace bcsf {

// TensorPtr / share_tensor / borrow_tensor live in tensor/sparse_tensor.hpp
// (re-exported here): the snapshot layer underneath the cache uses the
// same shared-ownership currency.

/// Plans leave the concurrent cache as shared_ptr so an async delegate
/// swap can retire a plan while in-flight run() calls finish on it.
using SharedPlan = std::shared_ptr<const TensorOpPlan>;

class ConcurrentPlanCache {
 public:
  /// Factory used to build plans; injectable so tests can count or fail
  /// builds.  Defaults to FormatRegistry::instance().create.
  using BuildFn =
      std::function<PlanPtr(const std::string& format, const SparseTensor&,
                            index_t mode, const PlanOptions&)>;

  /// `tensor_version` identifies the snapshot the cache builds plans
  /// from (DynamicSparseTensor's TensorSnapshot::base_version; 0 for a
  /// static tensor).  Plans in this cache are valid exactly for that
  /// snapshot version.  `heat_decay` in (0, 1] is the per-tick decay
  /// factor of the per-mode heat counters (see note_call); 1 disables
  /// decay.
  explicit ConcurrentPlanCache(TensorPtr tensor, PlanOptions opts = {},
                               BuildFn build = {},
                               std::uint64_t tensor_version = 0,
                               double heat_decay = 0.5);

  /// Returns the plan for (format, mode, op), building it on first use.
  /// Concurrent callers for the same key get the same plan from exactly
  /// one factory call; callers for distinct keys build in parallel.
  /// Rethrows the builder's exception to every waiter and evicts the
  /// entry so the next get() retries.  For concrete (non-meta) formats
  /// every op maps to one shared slot (see the header comment); the
  /// returned plan executes any op the format supports.
  SharedPlan get(const std::string& format, index_t mode,
                 OpKind op = OpKind::kMttkrp);

  /// Non-blocking probe: the plan if it is already built, nullptr if it
  /// is absent or still building.
  SharedPlan try_get(const std::string& format, index_t mode,
                     OpKind op = OpKind::kMttkrp) const;

  /// Number of completed plans (in-flight builds excluded).
  std::size_t size() const;

  /// Sum of build_seconds() over completed plans (the all-mode
  /// pre-processing cost, as in the old PlanCache).
  double total_build_seconds() const;

  /// Snapshot version the cached plans were built from (see constructor).
  std::uint64_t tensor_version() const;

  /// Plan invalidation by snapshot version: atomically swaps the source
  /// tensor for a newer snapshot and evicts every cached slot (completed
  /// AND in-flight), so later get() calls build against the new
  /// snapshot.  Returns the number of slots evicted and logs it at INFO
  /// -- the observability hook for per-shard compaction commits
  /// (DESIGN.md §8).  A stale `version` (not strictly newer than
  /// tensor_version()) is REJECTED: nothing is swapped or evicted and
  /// the return value is 0; distinguish "accepted but empty" via
  /// tensor_version().  Plans already handed out stay valid for THEIR
  /// snapshot -- each pins its own source tensor via its deleter -- but
  /// a get() concurrent with invalidate() may return a plan from either
  /// side of the swap, so callers needing snapshot-consistent (plan,
  /// delta) pairs should hold a per-snapshot cache instead (what
  /// TensorOpService does, DESIGN.md §6); invalidate() is for
  /// single-writer refresh patterns.
  std::size_t invalidate(TensorPtr tensor, std::uint64_t version);

  TensorPtr tensor() const;
  const PlanOptions& options() const { return opts_; }

  // -- Heat accounting (DESIGN.md §10) -------------------------------
  //
  // One exponentially-decayed call counter per mode, keyed to a
  // caller-supplied logical tick (the service's global request counter)
  // rather than wall-clock time, so eviction order is deterministic and
  // replayable.  At tick `t`, a counter last touched at tick `t0` with
  // value `h` reads as `h * heat_decay^(t - t0)`.

  /// Record one call against `mode` at logical time `tick`.
  void note_call(index_t mode, std::uint64_t tick);

  /// The decayed heat of `mode` as observed at logical time `tick`.
  double heat(index_t mode, std::uint64_t tick) const;

  /// Overwrite `mode`'s heat (compaction carries heat from the retiring
  /// generation's cache into its replacement).
  void set_heat(index_t mode, double value, std::uint64_t tick);

  double heat_decay() const { return heat_decay_; }

  /// Sum of storage_bytes() over completed STRUCTURED plans.  COO-family
  /// plans are excluded: they reference the source tensor rather than
  /// owning index structure, so their bytes are the tensor's own.
  std::size_t resident_bytes() const;

  /// Drop the completed plan for (format, mode, op), if any.  In-flight
  /// builds are left alone (their waiters hold the future).  Returns
  /// true when a ready slot was erased.
  bool evict(const std::string& format, index_t mode,
             OpKind op = OpKind::kMttkrp);

  /// True for the zero-preprocessing COO family ("coo", "reference") --
  /// the formats the serving layer treats as the free fallback tier
  /// (shared with TensorOpService's upgrade policy).  "cpu-coo" is not
  /// one: it owns a slice-grouped copy built once per plan.
  static bool coo_family(const std::string& format);

 private:
  using Key = std::tuple<std::string, index_t, OpKind>;

  /// The op component of a key: `op` itself for meta formats (their
  /// resolution is op-dependent), kMttkrp for everything else so one
  /// build serves all ops.
  static OpKind canonical_op(const std::string& format, OpKind op);

  struct HeatSlot {
    mutable Mutex m;
    double heat BCSF_GUARDED_BY(m) = 0.0;
    std::uint64_t last_tick BCSF_GUARDED_BY(m) = 0;
  };

  double decayed(double heat, std::uint64_t last, std::uint64_t now) const;

  mutable SharedMutex mutex_;
  TensorPtr tensor_ BCSF_GUARDED_BY(mutex_);
  PlanOptions opts_;   // const after construction
  BuildFn build_;      // const after construction
  std::uint64_t tensor_version_ BCSF_GUARDED_BY(mutex_) = 0;
  double heat_decay_ = 0.5;  // const after construction
  // One shared_future per key: pending while the winning thread builds,
  // ready once the plan exists.  Failed builds are erased.
  std::map<Key, std::shared_future<SharedPlan>> slots_ BCSF_GUARDED_BY(mutex_);
  // One heat counter per mode; sized at construction, never resized
  // (HeatSlot is immovable).  Independent of slots_: heat tracks
  // traffic, not residency, so an evicted mode keeps its heat.
  std::vector<HeatSlot> heat_;
};

}  // namespace bcsf
