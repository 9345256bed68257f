// Answer checking.  Every serving workload runs on exact-grid data (see
// harness.hpp), so every format, shard split and schedule must return the
// bits the sequential "reference" format returns; replies are reduced to
// a hash while the clock runs and checked after it stops.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// FNV-1a over the float bits of a reply's output.
std::uint64_t hash_output(std::span<const float> values);
/// The same hash over doubles cast to float (exact on the grid).
std::uint64_t hash_output(const std::vector<double>& values);

/// The inputs of the serving query kinds: rank-R factors for MTTKRP and
/// FIT, one vector per mode for TTV.
struct QueryInputs {
  std::vector<bcsf::DenseMatrix> factors;
  std::vector<bcsf::DenseMatrix> vectors;
  const std::vector<bcsf::DenseMatrix>& for_op(bcsf::OpKind op) const {
    return op == bcsf::OpKind::kTtv ? vectors : factors;
  }
};

/// Exact answers for one tensor, in double, keyed by (op, mode).  A
/// matrix-valued op holds its row-major output; FIT holds one value.
struct Answers {
  std::map<std::pair<int, bcsf::index_t>, std::vector<double>> out;

  Answers& operator+=(const Answers& other);
};

/// Runs the "reference" format for each (op, mode) in `keys` on `tensor`.
Answers reference_answers(const bcsf::SparseTensor& tensor,
                          const QueryInputs& inputs,
                          const std::vector<std::pair<int, bcsf::index_t>>& keys);

/// One reply of a timed phase, reduced to what the check needs.
struct Reply {
  enum Status : std::uint8_t { kOk, kOverloaded, kError };
  std::uint8_t op = 0;
  bcsf::index_t mode = 0;
  /// Update batches acknowledged before the query was sent, and update
  /// batches begun before its reply arrived: the reply reflects, in each
  /// shard, some count of batches in [updates_before, updates_after].
  std::uint32_t updates_before = 0;
  std::uint32_t updates_after = 0;
  Status status = kOk;
  double latency_ms = 0.0;
  Clock::time_point done{};  ///< when the reply was stamped
  std::uint64_t hash = 0;
  double scalar = 0.0;
};

/// Fills `reply` from a served op result.
void summarize(Reply& reply, std::span<const float> output, double scalar);

/// True when the reply equals `expected` (FIT: the scalar; otherwise the
/// hashed output).
bool matches(const Reply& reply, const std::vector<double>& expected);

}  // namespace perfbench
