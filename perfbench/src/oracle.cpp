#include "oracle.hpp"

#include <cstring>

namespace perfbench {

namespace {
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix_float(std::uint64_t h, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 4; ++i) {
    h ^= (bits >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

std::uint64_t hash_output(std::span<const float> values) {
  std::uint64_t h = kFnvOffset;
  for (float v : values) h = mix_float(h, v);
  return h;
}

std::uint64_t hash_output(const std::vector<double>& values) {
  std::uint64_t h = kFnvOffset;
  for (double v : values) h = mix_float(h, static_cast<float>(v));
  return h;
}

Answers& Answers::operator+=(const Answers& other) {
  for (const auto& [key, values] : other.out) {
    auto& mine = out[key];
    if (mine.empty()) mine.assign(values.size(), 0.0);
    for (std::size_t i = 0; i < values.size(); ++i) mine[i] += values[i];
  }
  return *this;
}

Answers reference_answers(
    const bcsf::SparseTensor& tensor, const QueryInputs& inputs,
    const std::vector<std::pair<int, bcsf::index_t>>& keys) {
  Answers answers;
  const auto& registry = bcsf::FormatRegistry::instance();
  for (const auto& [op, mode] : keys) {
    const auto kind = static_cast<bcsf::OpKind>(op);
    bcsf::PlanOptions opts;
    opts.op = kind;
    const bcsf::PlanPtr plan = registry.create("reference", tensor, mode, opts);
    bcsf::OpRequest request;
    request.kind = kind;
    request.mode = mode;
    request.factors = &inputs.for_op(kind);
    const bcsf::OpResult result = plan->execute(request);
    std::vector<double>& dst = answers.out[{op, mode}];
    if (kind == bcsf::OpKind::kFit) {
      dst.assign(1, result.scalar);
    } else {
      const auto data = result.output.data();
      dst.assign(data.begin(), data.end());
    }
  }
  return answers;
}

void summarize(Reply& reply, std::span<const float> output, double scalar) {
  reply.hash = hash_output(output);
  reply.scalar = scalar;
}

bool matches(const Reply& reply, const std::vector<double>& expected) {
  if (reply.op == static_cast<std::uint8_t>(bcsf::OpKind::kFit)) {
    return expected.size() == 1 && reply.scalar == expected[0];
  }
  return reply.hash == hash_output(expected);
}

}  // namespace perfbench
