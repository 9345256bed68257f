// The perfbench workloads and the per-layer probes.  Each run fills
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) of BENCHMARK.json; README.md documents every metric.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// update-mix: a TensorServer in this process, driven
/// through TensorClients over a unix socket.
RunResult run_serving(const RunConfig& cfg);

/// cpd-batch: cpd_als called directly, no socket and no service.
RunResult run_cpd_batch(const RunConfig& cfg);

/// Per-format probes on the update-mix tensor of `seed`: build, storage,
/// MTTKRP/TTV/FIT execute times, computed flops and bytes, and the
/// simulator's counts.  Adds the core./formats./kernels./gpusim. metrics.
void probe_formats(std::uint64_t seed, RunResult& out);

/// Median wall time of cutting `tensor` into 4 nnz-balanced shards along
/// mode 0 (tensor/partitioner.hpp), over 3 calls.
double probe_partition_ms(const bcsf::SparseTensor& tensor);

/// Prints the probe table for generate_uniform({400,600,800}, 200k), the
/// tensor of ROADMAP's "Baseline to reproduce first".
void print_baseline_table();

/// Self time per layer from the recorded spans, as "<layer>.self_ms".
void add_self_times(RunResult& out);

}  // namespace perfbench
