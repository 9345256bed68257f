// Planning-latency comparison (DESIGN.md §12): the exact §V policy
// rescans the tensor -- radix sort + slice/fiber walk, O(nnz) -- every
// time a format decision is made, while the sketch-backed overload reads
// O(S) streaming-sketch state.  This bench sweeps tensor sizes and times
// both paths on identical inputs, so the headline claims are measurable
// in one table: sketched planning latency stays FLAT as nnz grows, and
// at the largest size the win is >= 10x (both held by CI jq gates over
// the JSON record).
//
// Per size the bench reports, per decision (one auto_select_format call,
// averaged over all modes x --reps repetitions):
//   exact_ms   -- the exact policy on the raw tensor
//   sketch_ms  -- the sketch overload on a prebuilt TensorSketch
//   build_ms   -- one-time sketch construction cost (amortized across
//                 every later decision, re-decision and kStats query;
//                 paid where the serving layer already scans: register
//                 and compaction)
// plus whether the two paths chose the same format on every mode (the
// parity tests hold this with tolerance; here it is informational).
//
//   ./policy_latency [--nnz=50000,200000,800000] [--reps=N] [--json=path]
#include "bench_util.hpp"
#include "core/auto_policy.hpp"
#include "tensor/sketch.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::vector<bcsf::offset_t> parse_sizes(const std::string& spec) {
  std::vector<bcsf::offset_t> sizes;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    sizes.push_back(static_cast<bcsf::offset_t>(std::stoul(tok)));
  }
  return sizes;
}

struct SizeRow {
  bcsf::offset_t nnz = 0;
  double exact_ms = 0.0;   // per decision
  double sketch_ms = 0.0;  // per decision
  double build_ms = 0.0;   // one-time sketch build
  double speedup = 0.0;
  int decisions = 0;
  bool formats_agree = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bcsf;
  const CliParser cli(argc, argv);
  const std::vector<offset_t> sizes =
      parse_sizes(cli.get_string("nnz", "50000,200000,800000"));
  const int reps = static_cast<int>(cli.get_int("reps", 20));
  const std::string json_path = cli.get_string("json", "");

  bench::print_header(
      "Planning latency: exact O(nnz) policy vs streaming sketches",
      "per-decision auto_select_format wall time; sketch column must stay "
      "flat across sizes (DESIGN.md §12)");

  bench::Table table({"nnz", "exact (ms)", "sketch (ms)", "build (ms)",
                      "speedup", "agree"});
  std::vector<SizeRow> rows;
  // Accumulated so the optimizer cannot discard the timed decisions.
  double sink = 0.0;

  for (offset_t nnz : sizes) {
    PowerLawConfig config;
    config.dims = {static_cast<index_t>(nnz / 100), 400, 300};
    config.target_nnz = nnz;
    config.slice_alpha = 1.2;
    config.seed = 7;
    const SparseTensor tensor = generate_power_law(config);

    SizeRow row;
    row.nnz = tensor.nnz();

    Timer build_timer;
    const TensorSketch sketch = TensorSketch::build(tensor);
    row.build_ms = build_timer.milliseconds();

    const AutoPolicyOptions policy;
    for (index_t mode = 0; mode < tensor.order(); ++mode) {
      const AutoDecision exact = auto_select_format(tensor, mode, policy);
      const AutoDecision approx = auto_select_format(sketch, mode, policy);
      if (approx.format != exact.format) row.formats_agree = false;
    }

    Timer exact_timer;
    for (int r = 0; r < reps; ++r) {
      for (index_t mode = 0; mode < tensor.order(); ++mode) {
        sink += auto_select_format(tensor, mode, policy).coo_slice_fraction;
        ++row.decisions;
      }
    }
    const double exact_total = exact_timer.milliseconds();

    Timer sketch_timer;
    for (int r = 0; r < reps; ++r) {
      for (index_t mode = 0; mode < tensor.order(); ++mode) {
        sink += auto_select_format(sketch, mode, policy).coo_slice_fraction;
      }
    }
    const double sketch_total = sketch_timer.milliseconds();

    row.exact_ms = exact_total / row.decisions;
    row.sketch_ms = sketch_total / row.decisions;
    row.speedup = row.sketch_ms > 0.0 ? row.exact_ms / row.sketch_ms : 0.0;
    table.row(static_cast<long>(row.nnz), row.exact_ms, row.sketch_ms,
              row.build_ms, row.speedup, row.formats_agree ? "yes" : "NO");
    rows.push_back(row);
  }
  table.print();
  std::cout << "(sink " << sink << ")\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"schema\": \"BENCH_policy/v1\",\n"
        << "  \"bench\": \"policy_latency\",\n"
        << "  \"config\": {\"reps\": " << reps << "},\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SizeRow& r = rows[i];
      out << "    {\"nnz\": " << r.nnz << ", \"exact_ms\": " << r.exact_ms
          << ", \"sketch_ms\": " << r.sketch_ms
          << ", \"build_ms\": " << r.build_ms
          << ", \"speedup\": " << r.speedup
          << ", \"decisions\": " << r.decisions << ", \"formats_agree\": "
          << (r.formats_agree ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
