#include "serve/concurrent_plan_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace bcsf {

ConcurrentPlanCache::ConcurrentPlanCache(TensorPtr tensor, PlanOptions opts,
                                         BuildFn build,
                                         std::uint64_t tensor_version,
                                         double heat_decay)
    : tensor_(std::move(tensor)), opts_(std::move(opts)),
      build_(std::move(build)), tensor_version_(tensor_version),
      heat_decay_(heat_decay), heat_(tensor_ ? tensor_->order() : 0) {
  BCSF_CHECK(tensor_ != nullptr, "ConcurrentPlanCache: null tensor");
  BCSF_CHECK(heat_decay_ > 0.0 && heat_decay_ <= 1.0,
             "ConcurrentPlanCache: heat_decay must be in (0, 1], got "
                 << heat_decay_);
  if (!build_) {
    build_ = [](const std::string& format, const SparseTensor& t, index_t mode,
                const PlanOptions& o) {
      return FormatRegistry::instance().create(format, t, mode, o);
    };
  }
}

OpKind ConcurrentPlanCache::canonical_op(const std::string& format,
                                         OpKind op) {
  const FormatRegistry& registry = FormatRegistry::instance();
  if (registry.contains(format) &&
      registry.at(format).kind == PlanKind::kMeta) {
    return op;
  }
  return OpKind::kMttkrp;
}

SharedPlan ConcurrentPlanCache::get(const std::string& format, index_t mode,
                                    OpKind op) {
  // The registry's op gate must hold for the op the CALLER asked for,
  // before canonicalization folds concrete-format slots together --
  // otherwise a restricted format would slip through as its kMttkrp
  // slot and fail deep inside execute() instead of up front.
  BCSF_CHECK(!FormatRegistry::instance().contains(format) ||
                 FormatRegistry::instance().supports(format, op),
             "ConcurrentPlanCache: format '" << format
                                             << "' does not support op '"
                                             << op_name(op) << "'");
  const OpKind slot_op = canonical_op(format, op);
  const Key key{format, mode, slot_op};
  {
    ReaderLock lock(mutex_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      std::shared_future<SharedPlan> future = it->second;
      lock.unlock();
      return future.get();  // ready, or blocks on the in-flight build
    }
  }

  std::promise<SharedPlan> promise;
  std::shared_future<SharedPlan> future = promise.get_future().share();
  TensorPtr tensor;
  std::uint64_t version = 0;
  {
    WriterLock lock(mutex_);
    auto [it, inserted] = slots_.emplace(key, future);
    if (!inserted) {
      // Lost the publish race: wait on the winner's build instead.
      std::shared_future<SharedPlan> other = it->second;
      lock.unlock();
      return other.get();
    }
    // Capture the snapshot this build is for: invalidate() may swap
    // tensor_ while the build runs, and the plan must pin ITS source.
    tensor = tensor_;
    version = tensor_version_;
  }

  // Single-flight winner: build with no lock held so other keys proceed.
  try {
    PlanOptions build_opts = opts_;
    build_opts.op = slot_op;  // meta plans resolve for the requested op
    PlanPtr raw = build_(format, *tensor, mode, build_opts);
    BCSF_CHECK(raw != nullptr, "ConcurrentPlanCache: builder for '"
                                   << format << "' returned null");
    // The deleter pins the tensor: any caller retaining the plan keeps
    // the source tensor alive (COO-family plans reference, not copy).
    SharedPlan plan(raw.release(),
                    [tensor](const TensorOpPlan* p) { delete p; });
    promise.set_value(plan);
    return plan;
  } catch (...) {
    {
      // Evict before waking waiters so a retrying waiter cannot re-find
      // the failed slot -- but only our own slot: an invalidate() racing
      // the build clears the map, and a same-key build may have started
      // against the NEW snapshot since.
      WriterLock lock(mutex_);
      if (tensor_version_ == version) slots_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::uint64_t ConcurrentPlanCache::tensor_version() const {
  ReaderLock lock(mutex_);
  return tensor_version_;
}

std::size_t ConcurrentPlanCache::invalidate(TensorPtr tensor,
                                            std::uint64_t version) {
  BCSF_CHECK(tensor != nullptr, "ConcurrentPlanCache::invalidate: null tensor");
  std::uint64_t old_version = 0;
  std::size_t evicted = 0;
  {
    WriterLock lock(mutex_);
    if (version <= tensor_version_) {
      BCSF_DEBUG << "ConcurrentPlanCache: rejected stale invalidate to v"
                 << version << " (at v" << tensor_version_ << ")";
      return 0;
    }
    old_version = tensor_version_;
    evicted = slots_.size();
    tensor_ = std::move(tensor);
    tensor_version_ = version;
    // Dropping pending futures is safe: in-flight winners hold their own
    // promise/tensor and waiters their own shared_future copies.
    slots_.clear();
  }
  BCSF_INFO << "ConcurrentPlanCache: invalidated v" << old_version << " -> v"
            << version << ", evicted " << evicted << " plan slot"
            << (evicted == 1 ? "" : "s");
  return evicted;
}

TensorPtr ConcurrentPlanCache::tensor() const {
  ReaderLock lock(mutex_);
  return tensor_;
}

SharedPlan ConcurrentPlanCache::try_get(const std::string& format,
                                        index_t mode, OpKind op) const {
  ReaderLock lock(mutex_);
  auto it = slots_.find(Key{format, mode, canonical_op(format, op)});
  if (it == slots_.end()) return nullptr;
  const std::shared_future<SharedPlan>& future = it->second;
  if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    return nullptr;
  }
  return future.get();
}

std::size_t ConcurrentPlanCache::size() const {
  ReaderLock lock(mutex_);
  std::size_t ready = 0;
  for (const auto& [key, future] : slots_) {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ++ready;
    }
  }
  return ready;
}

bool ConcurrentPlanCache::coo_family(const std::string& format) {
  return format == "coo" || format == "reference";
}

double ConcurrentPlanCache::decayed(double heat, std::uint64_t last,
                                    std::uint64_t now) const {
  if (now <= last || heat == 0.0) return heat;
  return heat * std::pow(heat_decay_, static_cast<double>(now - last));
}

void ConcurrentPlanCache::note_call(index_t mode, std::uint64_t tick) {
  BCSF_CHECK(static_cast<std::size_t>(mode) < heat_.size(),
             "ConcurrentPlanCache::note_call: mode " << mode
                                                     << " out of range");
  HeatSlot& slot = heat_[mode];
  MutexLock lock(slot.m);
  slot.heat = decayed(slot.heat, slot.last_tick, tick) + 1.0;
  slot.last_tick = std::max(slot.last_tick, tick);
}

double ConcurrentPlanCache::heat(index_t mode, std::uint64_t tick) const {
  BCSF_CHECK(static_cast<std::size_t>(mode) < heat_.size(),
             "ConcurrentPlanCache::heat: mode " << mode << " out of range");
  const HeatSlot& slot = heat_[mode];
  MutexLock lock(slot.m);
  return decayed(slot.heat, slot.last_tick, tick);
}

void ConcurrentPlanCache::set_heat(index_t mode, double value,
                                   std::uint64_t tick) {
  BCSF_CHECK(static_cast<std::size_t>(mode) < heat_.size(),
             "ConcurrentPlanCache::set_heat: mode " << mode
                                                    << " out of range");
  HeatSlot& slot = heat_[mode];
  MutexLock lock(slot.m);
  slot.heat = value;
  slot.last_tick = tick;
}

std::size_t ConcurrentPlanCache::resident_bytes() const {
  ReaderLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, future] : slots_) {
    if (coo_family(std::get<0>(key))) continue;
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      total += future.get()->storage_bytes();
    }
  }
  return total;
}

bool ConcurrentPlanCache::evict(const std::string& format, index_t mode,
                                OpKind op) {
  const Key key{format, mode, canonical_op(format, op)};
  WriterLock lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return false;
  // Never drop an in-flight build: its waiters hold the future, and the
  // winner would publish into a slot that no longer exists.
  if (it->second.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return false;
  }
  slots_.erase(it);
  return true;
}

double ConcurrentPlanCache::total_build_seconds() const {
  ReaderLock lock(mutex_);
  double total = 0.0;
  for (const auto& [key, future] : slots_) {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      total += future.get()->build_seconds();
    }
  }
  return total;
}

}  // namespace bcsf
