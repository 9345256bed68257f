// In-memory span recorder for the traced run.  Spans are recorded by the
// benchmark's own code around calls into the library's public functions
// (the library itself is not instrumented); they stay in memory and are
// written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "core.execute"
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< workload request index, 0 = none
  double value = 0.0;         ///< formats.build: the plan's storage bytes
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  /// Records a finished span; `id` 0 allocates one.  Returns the id.
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0, std::uint64_t id = 0,
                    double value = 0.0);

  /// Makes calls whose first argument is `key` (a request's factor set)
  /// children of span `parent`; the plan wrapper looks its parent up here.
  void bind(const void* key, std::uint64_t parent, std::uint64_t request);
  void unbind(const void* key);
  /// Parent span and request bound to `key`, or the calling thread's
  /// current span when nothing is bound.
  std::pair<std::uint64_t, std::uint64_t> parent_of(const void* key) const;

  /// Spans recorded so far whose name starts with `prefix`.
  std::vector<Span> snapshot(const std::string& prefix = "") const;
  /// Self time (duration minus the part of it that child spans cover) of
  /// every recorded span named `name`, in ms.
  std::vector<double> self_ms(const std::string& name) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::unordered_map<const void*, std::pair<std::uint64_t, std::uint64_t>>
      bound_;
};

/// Sets the calling thread's current span for the lifetime of the object,
/// so synchronous calls made inside it record it as their parent.
class ScopedParent {
 public:
  ScopedParent(std::uint64_t id, std::uint64_t request);
  ~ScopedParent();
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  std::uint64_t saved_id_;
  std::uint64_t saved_request_;
};

}  // namespace perfbench
