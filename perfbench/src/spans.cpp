#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

namespace {
thread_local std::uint64_t t_current_id = 0;
thread_local std::uint64_t t_current_request = 0;

double us_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}
}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

std::uint64_t SpanRecorder::add(const char* name, Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                std::uint64_t request, std::uint64_t id,
                                double value) {
  if (id == 0) id = next_id();
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(Span{name, start, end, id, parent, request, value});
  return id;
}

void SpanRecorder::bind(const void* key, std::uint64_t parent,
                        std::uint64_t request) {
  std::lock_guard<std::mutex> lock(m_);
  bound_[key] = {parent, request};
}

void SpanRecorder::unbind(const void* key) {
  std::lock_guard<std::mutex> lock(m_);
  bound_.erase(key);
}

std::pair<std::uint64_t, std::uint64_t> SpanRecorder::parent_of(
    const void* key) const {
  {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = bound_.find(key);
    if (it != bound_.end()) return it->second;
  }
  return {t_current_id, t_current_request};
}

std::vector<Span> SpanRecorder::snapshot(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) out.push_back(s);
  }
  return out;
}

std::vector<double> SpanRecorder::self_ms(const std::string& name) const {
  const std::vector<Span> spans = snapshot();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    // Union of the children's intervals, clipped to this span: children
    // on other threads (a sharded request's per-shard executes) overlap.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        covered += ms_between(from, hi);
        reach = hi;
      }
    }
    out.push_back(ms_between(s.start, s.end) - covered);
  }
  return out;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : snapshot()) {
    os << "{\"name\":\"" << s.name << "\",\"start_us\":"
       << static_cast<std::int64_t>(us_since_epoch(s.start))
       << ",\"end_us\":" << static_cast<std::int64_t>(us_since_epoch(s.end))
       << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"value\":" << s.value << "}\n";
  }
}

ScopedParent::ScopedParent(std::uint64_t id, std::uint64_t request)
    : saved_id_(t_current_id), saved_request_(t_current_request) {
  t_current_id = id;
  t_current_request = request;
}

ScopedParent::~ScopedParent() {
  t_current_id = saved_id_;
  t_current_request = saved_request_;
}

}  // namespace perfbench
