// cpd-batch: the paper's application, cpd_als on an hbcsf backend, called
// directly -- no socket, no service.  cpd_als is handed the hbcsf plan
// behind the timing wrapper (timed_plan.hpp), whose core.execute spans
// mark the iteration boundaries: every iteration runs exactly three
// MTTKRPs and one FIT, in that order, on the calling thread.
#include <cmath>
#include <limits>

#include "spans.hpp"
#include "timed_plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr bcsf::rank_t kRank = 16;
constexpr unsigned kIterations = 8;
constexpr std::size_t kOpsPerIteration = 4;
/// |fit - reference fit| allowed after kIterations.  hbcsf accumulates in
/// float and "reference" in double, so the two ALS trajectories differ by
/// float rounding from the first MTTKRP on and the solves carry it
/// forward.  Observed differences are 1e-8..6e-8 on fits of ~4e-3; 1e-6
/// leaves headroom for that drift while staying a small fraction of the
/// fit itself.
constexpr double kFitTolerance = 1e-6;

bcsf::SparseTensor cpd_tensor(std::uint64_t seed) {
  bcsf::PowerLawConfig cfg;
  cfg.dims = {2000, 3000, 4000};
  cfg.target_nnz = 1000000;
  cfg.seed = kStructureSeed;
  bcsf::SparseTensor t = bcsf::generate_power_law(cfg);
  // Real values in the generator's range [0.5, 1.5], drawn from the seed.
  bcsf::Rng rng(seed);
  for (auto& v : t.values()) v = static_cast<bcsf::value_t>(rng.uniform_real(0.5, 1.5));
  return t;
}

bcsf::CpdOptions cpd_options(std::uint64_t seed, const std::string& format) {
  bcsf::CpdOptions opts;
  opts.rank = kRank;
  opts.max_iterations = kIterations;
  // Never stop early: every call runs the same number of iterations.
  opts.fit_tolerance = -std::numeric_limits<double>::infinity();
  opts.seed = seed;
  opts.format = format;
  return opts;
}

struct Call {
  std::vector<double> iteration_ms;  ///< empty when spans are off
  /// (wall - preprocessing) / iterations: comparable with spans on or off.
  double mean_iteration_ms = 0.0;
  double execute_ms = 0.0;  ///< core.execute time inside the iterations
  double preprocessing_s = 0.0;
  double plan_bytes = 0.0;
  double fit = 0.0;
};

/// One cpd_als call under its own "cpd.cpd_als" span.
Call timed_call(const bcsf::TensorPtr& tensor, std::uint64_t seed,
                std::uint64_t index) {
  SpanRecorder& spans = SpanRecorder::instance();
  const std::uint64_t id = spans.next_id();
  const auto start = Clock::now();
  bcsf::CpdResult result;
  {
    ScopedParent parent(id, index);
    result = bcsf::cpd_als(tensor, cpd_options(seed, kTimedHbcsf));
  }
  const auto end = Clock::now();

  Call call;
  call.preprocessing_s = result.preprocessing_seconds;
  call.fit = result.final_fit;
  call.mean_iteration_ms =
      (ms_between(start, end) - result.preprocessing_seconds * 1e3) / kIterations;
  if (!spans.on()) return call;
  spans.add("cpd.cpd_als", start, end, 0, index, id);
  std::vector<Span> execs;
  for (const Span& s : spans.snapshot("core.execute")) {
    if (s.parent == id) execs.push_back(s);
  }
  for (const Span& s : spans.snapshot("formats.build")) {
    if (s.parent == id) call.plan_bytes += s.value;
  }
  std::sort(execs.begin(), execs.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  if (execs.size() != kIterations * kOpsPerIteration) {
    throw bcsf::Error("cpd-batch: expected " +
                      std::to_string(kIterations * kOpsPerIteration) +
                      " plan calls, saw " + std::to_string(execs.size()));
  }
  for (std::size_t it = 0; it < kIterations; ++it) {
    const auto from = execs[it * kOpsPerIteration].start;
    const auto to = it + 1 < kIterations
                        ? execs[(it + 1) * kOpsPerIteration].start
                        : end;
    call.iteration_ms.push_back(ms_between(from, to));
  }
  for (const Span& s : execs) call.execute_ms += ms_between(s.start, s.end);
  return call;
}

/// Calls cpd_als until `seconds` have passed (at least twice).
std::vector<Call> run_calls(const bcsf::TensorPtr& tensor, std::uint64_t seed,
                            double seconds, std::uint64_t& index) {
  std::vector<Call> calls;
  const auto start = Clock::now();
  while (calls.size() < 2 ||
         std::chrono::duration<double>(Clock::now() - start).count() < seconds) {
    calls.push_back(timed_call(tensor, seed, ++index));
  }
  return calls;
}

std::vector<double> iterations_of(const std::vector<Call>& calls) {
  std::vector<double> xs;
  for (const Call& c : calls) {
    xs.insert(xs.end(), c.iteration_ms.begin(), c.iteration_ms.end());
  }
  return xs;
}

}  // namespace

RunResult run_cpd_batch(const RunConfig& cfg) {
  RunResult out;
  SpanRecorder& spans = SpanRecorder::instance();
  const bcsf::TensorPtr tensor = bcsf::share_tensor(cpd_tensor(cfg.seed));
  // The plan wrapper's spans are how iterations are timed, so they are
  // recorded in the untraced run too (two clock reads per plan call).
  spans.set_on(true);
  std::uint64_t index = 0;
  std::vector<Call> calls;
  if (!cfg.trace) {
    calls = run_calls(tensor, cfg.seed, cfg.seconds, index);
    const double rss = peak_rss_mb();
    const std::vector<double> iters = iterations_of(calls);
    double total_ms = 0.0;
    for (double x : iters) total_ms += x;
    std::vector<double> setups;
    for (const Call& c : calls) setups.push_back(c.preprocessing_s);
    out.set("ops_per_s",
            static_cast<double>(iters.size() * kOpsPerIteration) / (total_ms / 1e3),
            "1/s");
    out.set("latency_p50_ms", percentile(iters, 50.0), "ms");
    out.set("latency_p99_ms", percentile(iters, 99.0), "ms");
    out.set("setup_s", median(setups), "s");
    out.set("plan_mb", calls.back().plan_bytes / 1e6, "MB");
    out.set("peak_rss_mb", rss, "MB");
    out.notes.push_back("iteration samples: " + std::to_string(iters.size()) +
                        " over " + std::to_string(calls.size()) + " calls");
  } else {
    // Half the calls with spans off, half with spans on; the tracing
    // overhead compares their mean iteration times.
    spans.set_on(false);
    const std::vector<Call> plain = run_calls(tensor, cfg.seed, cfg.seconds / 2, index);
    spans.set_on(true);
    calls = run_calls(tensor, cfg.seed, cfg.seconds / 2, index);
    auto mean_iterations = [](const std::vector<Call>& cs) {
      std::vector<double> xs;
      for (const Call& c : cs) xs.push_back(c.mean_iteration_ms);
      return median(xs);
    };
    double execute_ms = 0.0;
    double iter_ms = 0.0;
    for (const Call& c : calls) {
      execute_ms += c.execute_ms;
      for (double x : c.iteration_ms) iter_ms += x;
    }
    out.set("cpd.mttkrp_share", execute_ms / iter_ms, "ratio");
    out.set("bench.trace_overhead_frac",
            mean_iterations(calls) / mean_iterations(plain) - 1.0, "ratio");

    // linalg: the per-mode R x R Gram-Hadamard product and solve of one
    // ALS update, on rank-kRank factors of this tensor's shape.
    const auto factors = bcsf::make_random_factors(tensor->dims(), kRank, cfg.seed);
    const bcsf::DenseMatrix mk = factors[0];
    std::vector<double> solve_us;
    for (int k = 0; k < 21; ++k) {
      const auto t0 = Clock::now();
      const bcsf::DenseMatrix v = bcsf::gram_hadamard_except(factors, 0);
      const bcsf::DenseMatrix solved = bcsf::solve_spd_right(v, mk);
      const auto t1 = Clock::now();
      spans.add("linalg.solve", t0, t1);
      solve_us.push_back(ms_between(t0, t1) * 1e3);
    }
    out.set("linalg.solve_us", median(solve_us), "us");
    out.set("tensor.partition_ms", probe_partition_ms(*tensor), "ms");
    // cpd-batch bypasses net/ and serve/ and applies no updates.
    for (const char* name :
         {"serve.latency_p50_ms", "serve.overhead_ms", "serve.queue_depth_max",
          "serve.queue_depth_mean", "serve.plan_hit_rate", "serve.evictions",
          "serve.upgrade_rejects", "serve.fanout_ms", "serve.reduce_ms",
          "serve.compactions", "serve.time_to_structured_ms",
          "tensor.apply_updates_ms", "tensor.delta_frac_max", "net.encode_us",
          "net.decode_us", "net.bytes_per_query", "net.rejected",
          "net.overhead_ms"}) {
      out.set(name, 0.0, "");
    }
  }
  spans.set_on(false);

  // Oracle, outside the timed phase: the same decomposition on the
  // double-accumulating reference backend.
  const double reference_fit =
      bcsf::cpd_als(tensor, cpd_options(cfg.seed, "reference")).final_fit;
  out.attempted = calls.size();
  for (const Call& c : calls) {
    if (!(std::abs(c.fit - reference_fit) <= kFitTolerance)) ++out.wrong;
  }
  out.failed = out.wrong;
  if (!cfg.trace) {
    out.set("ok_frac",
            1.0 - static_cast<double>(out.failed) / static_cast<double>(calls.size()),
            "ratio");
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "fit %.9f vs reference %.9f (tolerance %.0e)",
                calls.back().fit, reference_fit, kFitTolerance);
  out.notes.push_back(buf);
  return out;
}

}  // namespace perfbench
