// Per-format probes of the formats/, core/, kernels/ and gpusim/ layers,
// and the per-layer self times of the traced run.
#include <cstdio>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr bcsf::rank_t kRank = 32;
constexpr int kRepeats = 5;

/// The formats of the per-layer metrics: the paper's GPU formats, the
/// SPLATT-style CPU walk, the OpenMP COO baseline and the single-threaded
/// reference.
const char* const kFormats[] = {"coo",     "bcsf",    "hbcsf",    "csl",
                                "cpu-csf", "cpu-coo", "reference"};

struct Probe {
  double build_s = 0.0;
  double first_ms = 0.0;
  double repeat_ms = 0.0;  ///< median of kRepeats executes after the first
  std::size_t storage_bytes = 0;
  bcsf::SimReport report;
  bool gpu = false;
};

/// Times `op` in mode 0 on a freshly built plan.
Probe probe(const std::string& format, const bcsf::SparseTensor& tensor,
            const std::vector<bcsf::DenseMatrix>& inputs, bcsf::OpKind op) {
  SpanRecorder& spans = SpanRecorder::instance();
  Probe p;
  bcsf::PlanOptions opts;
  opts.op = op;
  const auto b0 = Clock::now();
  const bcsf::PlanPtr plan =
      bcsf::FormatRegistry::instance().create(format, tensor, 0, opts);
  const auto b1 = Clock::now();
  spans.add("formats.build", b0, b1, 0, 0, 0,
            static_cast<double>(plan->storage_bytes()));
  p.build_s = std::chrono::duration<double>(b1 - b0).count();
  p.storage_bytes = plan->storage_bytes();
  p.gpu = plan->is_gpu();
  bcsf::OpRequest request;
  request.kind = op;
  request.mode = 0;
  request.factors = &inputs;
  std::vector<double> times;
  for (int k = 0; k <= kRepeats; ++k) {
    const auto t0 = Clock::now();
    bcsf::OpResult result = plan->execute(request);
    const auto t1 = Clock::now();
    spans.add("core.execute", t0, t1);
    const double ms = ms_between(t0, t1);
    if (k == 0) {
      p.first_ms = ms;
    } else {
      times.push_back(ms);
    }
    p.report = std::move(result.report);
  }
  p.repeat_ms = median(times);
  return p;
}

}  // namespace

void probe_formats(std::uint64_t seed, RunResult& out) {
  const bcsf::SparseTensor tensor = steady_tensor(seed);
  const auto factors = grid_factors(tensor.dims(), kRank, seed + 11);
  const auto vectors = grid_factors(tensor.dims(), 1, seed + 13);
  // Computed, not measured: N*R multiply-adds per nonzero, and the bytes
  // a format must read and write at least once -- its index storage, the
  // factor rows of the contracted modes, and the output.
  const double flops = static_cast<double>(tensor.order()) * kRank *
                       static_cast<double>(tensor.nnz());
  double dense_bytes = static_cast<double>(tensor.dim(0)) * kRank * sizeof(float);
  for (bcsf::index_t m = 1; m < tensor.order(); ++m) {
    dense_bytes += static_cast<double>(tensor.dim(m)) * kRank * sizeof(float);
  }
  out.set("kernels.flops", flops, "count");
  for (const std::string fmt : kFormats) {
    const Probe p = probe(fmt, tensor, factors, bcsf::OpKind::kMttkrp);
    out.set("core.execute_ms." + fmt, p.repeat_ms, "ms");
    out.set("formats.build_s." + fmt, p.build_s, "s");
    out.set("formats.storage_mb." + fmt, static_cast<double>(p.storage_bytes) / 1e6,
            "MB");
    out.set("kernels.bytes_computed." + fmt,
            static_cast<double>(p.storage_bytes) + dense_bytes, "bytes");
    out.set("kernels.gflops." + fmt, flops / (p.repeat_ms * 1e-3) / 1e9, "GFLOP/s");
    if (p.gpu) {
      out.set("gpusim.sim_us." + fmt, p.report.seconds * 1e6, "us");
      out.set("gpusim.cycles." + fmt, p.report.cycles, "count");
    }
  }
  out.set("core.execute_ms.ttv.bcsf",
          probe("bcsf", tensor, vectors, bcsf::OpKind::kTtv).repeat_ms, "ms");
  out.set("core.execute_ms.fit.bcsf",
          probe("bcsf", tensor, factors, bcsf::OpKind::kFit).repeat_ms, "ms");
}

double probe_partition_ms(const bcsf::SparseTensor& tensor) {
  std::vector<double> xs;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    const bcsf::TensorPartition p = bcsf::partition_tensor(tensor, 0, 4);
    xs.push_back(ms_between(t0, Clock::now()));
  }
  return median(xs);
}

void print_baseline_table() {
  const bcsf::SparseTensor tensor =
      bcsf::generate_uniform({400, 600, 800}, 200000, 42);
  const auto factors = bcsf::make_random_factors(tensor.dims(), kRank, 4242);
  std::printf("generate_uniform({400,600,800}, 200k), rank %u, MTTKRP mode 0\n",
              static_cast<unsigned>(kRank));
  std::printf("%-10s %10s %10s %10s %10s\n", "format", "build_ms", "first_ms",
              "repeat_ms", "storage_MB");
  for (const std::string fmt : kFormats) {
    const Probe p = probe(fmt, tensor, factors, bcsf::OpKind::kMttkrp);
    std::printf("%-10s %10.2f %10.2f %10.2f %10.3f\n", fmt.c_str(),
                p.build_s * 1e3, p.first_ms, p.repeat_ms,
                static_cast<double>(p.storage_bytes) / 1e6);
  }
}

void add_self_times(RunResult& out) {
  // One span per layer: the call that layer's self time is charged to.
  static const std::pair<const char*, const char*> kLayerSpans[] = {
      {"net", "net.query_rtt"},     {"serve", "serve.submit"},
      {"core", "core.execute"},     {"formats", "formats.build"},
      {"tensor", "tensor.apply_updates"}, {"cpd", "cpd.cpd_als"},
      {"linalg", "linalg.solve"}};
  const SpanRecorder& spans = SpanRecorder::instance();
  for (const auto& [layer, span] : kLayerSpans) {
    out.set(std::string(layer) + ".self_ms", mean(spans.self_ms(span)), "ms");
  }
}

}  // namespace perfbench
