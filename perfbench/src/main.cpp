// perfbench: one workload run.  Usage (normally through run.py):
//
//   perfbench --workload=<name> --seed=N --seconds=S --trace=0|1
//             [--out-dir=DIR]
//   perfbench --baseline
//
// Prints diagnostics to stderr and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an
// answer differs from the reference, 2 on a harness error.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  bcsf::set_log_level(bcsf::LogLevel::kWarn);
  const bcsf::CliParser cli(argc, argv);
  if (cli.has("baseline")) {
    print_baseline_table();
    return 0;
  }
  RunConfig cfg;
  cfg.workload = cli.get_string("workload", "");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.seconds = cli.get_double("seconds", 10.0);
  cfg.trace = cli.get_int("trace", 0) != 0;
  cfg.out_dir = cli.get_string("out-dir", ".");
  try {
    RunResult result;
    if (cfg.workload == "cpd-batch") {
      result = run_cpd_batch(cfg);
    } else if (cfg.workload == "update-mix") {
      result = run_serving(cfg);
    } else {
      throw bcsf::Error("unknown --workload '" + cfg.workload + "'");
    }
    if (cfg.trace) {
      probe_formats(cfg.seed, result);
      add_self_times(result);
      const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + ".jsonl";
      SpanRecorder::instance().write(path);
      std::cerr << "spans written to " << path << "\n";
    }
    for (const std::string& note : result.notes) std::cerr << note << "\n";
    std::cerr << "attempted " << result.attempted << ", succeeded "
              << result.attempted - result.failed << ", failed " << result.failed
              << "\n";
    std::cout << "{\"correct\": " << (result.wrong == 0 ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      if (!std::isfinite(metric.value)) {
        throw bcsf::Error("metric " + name + " is not finite");
      }
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metric.value);
      std::cout << (first ? "" : ", ") << "\"" << json_escape(name)
                << "\": {\"value\": " << value << ", \"unit\": \""
                << json_escape(metric.unit) << "\"}";
      first = false;
    }
    std::cout << "}}" << std::endl;
    return result.wrong == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
