// Payload encoding for the tensord protocol (DESIGN.md §9): the message
// bodies carried inside net/frame.hpp frames, mirroring the serving
// layer's currency -- ServeRequest / ServeResponse / apply_updates.
//
// Encoding is little-endian and position-based (no field tags): u8/u32/
// u64 integers, f32/f64 IEEE floats, strings and arrays length-prefixed
// with u32 counts.  Every request payload begins with a client-chosen u64
// id that the matching response echoes.  Decoders are hostile-input safe:
// every read is bounds-checked against the remaining payload (WireReader
// throws ProtocolError on underrun) and array counts are validated
// against the bytes that must back them BEFORE any allocation, so a
// forged count cannot OOM the server.  Tensor payloads additionally pass
// SparseTensor bounds validation coordinate by coordinate.
//
// The exact same bytes serve three transports: unix/TCP sockets, trace
// files (a recorded request IS its wire payload), and the replay response
// logs that the deterministic-replay gate compares byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/tensor_op.hpp"
#include "linalg/dense_matrix.hpp"
#include "net/frame.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf::net {

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f64(double v);
  void str(const std::string& s);
  void tensor(const SparseTensor& t);
  void matrix(const DenseMatrix& m);

  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed payload.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> payload)
      : data_(payload) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();
  std::string str();
  SparseTensor tensor();
  DenseMatrix matrix();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws ProtocolError unless the payload was consumed exactly.
  void expect_done(const char* what) const;

 private:
  /// Throws ProtocolError unless `n` more bytes are available.
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Messages.  One struct + encode/decode pair per frame type; decode throws
// ProtocolError on any malformed payload.
// ---------------------------------------------------------------------------

struct RegisterMsg {
  std::uint64_t id = 0;
  std::string name;
  SparseTensor tensor;
};

struct UpdateMsg {
  std::uint64_t id = 0;
  std::string name;
  SparseTensor updates;
};

/// Mirror of serve/ServeRequest with the factor set inlined (the wire has
/// no shared memory to alias).
struct QueryMsg {
  std::uint64_t id = 0;
  std::string tensor;
  index_t mode = 0;
  OpKind op = OpKind::kMttkrp;
  std::vector<DenseMatrix> factors;
  bool has_lambda = false;
  std::vector<value_t> lambda;
};

/// Per-tenant accounting entry carried in stats-bearing acks (kPing
/// replies): the wire mirror of TensorOpService::TenantStats.
struct TenantStatMsg {
  std::string name;
  std::uint64_t plan_bytes = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t calls = 0;
  std::uint64_t structured_served = 0;
  std::uint64_t evictions = 0;
  /// Sketch-derived tenant shape (DESIGN.md §12): stored nonzeros and
  /// squared norm, read from the serving layer's O(1) sketch scalars so
  /// a monitoring ping never triggers a rescan.
  std::uint64_t sketch_nnz = 0;
  double norm_sq = 0.0;
};

/// Ack body (kAck).  Register/update acks carry only id + version and
/// leave the fleet fields zero / tenants empty; kPing replies fill the
/// storage-budget fleet stats (DESIGN.md §10) so clients can watch
/// residency and evictions without a side channel.
struct AckMsg {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t evictions = 0;
  std::vector<TenantStatMsg> tenants;
};

/// The common register/update/shutdown reply: id + version only, fleet
/// stats left at their defaults (kPing fills them via service accessors).
inline AckMsg make_ack(std::uint64_t id, std::uint64_t version) {
  AckMsg msg;
  msg.id = id;
  msg.version = version;
  return msg;
}

/// Mirror of serve/ServeResponse, restricted to the DETERMINISTIC fields:
/// wall-clock timings (fanout_ms/reduce_ms) stay out so a replayed trace
/// can be compared byte for byte across runs.
struct ResultMsg {
  std::uint64_t id = 0;
  OpKind op = OpKind::kMttkrp;
  DenseMatrix output;
  double scalar = 0.0;
  std::uint64_t sequence = 0;
  std::uint64_t snapshot_version = 0;
  std::uint64_t delta_nnz = 0;
  std::uint32_t shards = 1;
  std::string served_format;
  bool upgraded = false;
};

/// kError and kOverloaded share this body.
struct ErrorMsg {
  std::uint64_t id = 0;
  std::string message;
};

std::vector<std::uint8_t> encode_register(const RegisterMsg& msg);
std::vector<std::uint8_t> encode_update(const UpdateMsg& msg);
std::vector<std::uint8_t> encode_query(const QueryMsg& msg);
std::vector<std::uint8_t> encode_ack(const AckMsg& msg);
std::vector<std::uint8_t> encode_result(const ResultMsg& msg);
std::vector<std::uint8_t> encode_error(const ErrorMsg& msg);
/// Bare-id body for kShutdown / kPing.
std::vector<std::uint8_t> encode_id(std::uint64_t id);

RegisterMsg decode_register(std::span<const std::uint8_t> payload);
UpdateMsg decode_update(std::span<const std::uint8_t> payload);
QueryMsg decode_query(std::span<const std::uint8_t> payload);
AckMsg decode_ack(std::span<const std::uint8_t> payload);
ResultMsg decode_result(std::span<const std::uint8_t> payload);
ErrorMsg decode_error(std::span<const std::uint8_t> payload);
std::uint64_t decode_id(std::span<const std::uint8_t> payload);

/// Best-effort id of any request/response payload (first 8 bytes), so an
/// error reply can still echo the id of a message whose body failed to
/// decode.  0 when the payload is shorter than an id.
std::uint64_t peek_id(std::span<const std::uint8_t> payload);

}  // namespace bcsf::net
