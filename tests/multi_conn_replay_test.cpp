// Multi-connection socket replay vs strict in-process replay (trace/
// trace.hpp, DESIGN.md §9): the same recorded workload driven through N
// concurrent pipelined TensorClients against a live TensorServer must
// produce the SAME normalized response log as the one-event-at-a-time
// in-process replay -- with exact-grid inputs every response is bitwise
// reproducible no matter how the pipelined queries interleave on the
// server's worker pool.  This is the test that makes replay_trace_sockets
// an oracle: any nondeterminism on the serving path (racy upgrade swap,
// iteration-order dependence, uninitialized output rows) shows up as a
// byte mismatch here.
//
// Carries the `concurrency` ctest label: the socket replay keeps several
// queries outstanding across connections, so the server's reader/writer
// threads and the service's shard fan-out all run concurrently under
// TSan in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"
#include "trace/trace.hpp"

namespace bcsf::trace {
namespace {

std::string test_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/bcsf_multiconn_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter.fetch_add(1)) + ".trace";
}

std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/bcsf_multiconn_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// The shared service configuration: the in-process replay service and
/// the socket-fronted server must be configured IDENTICALLY or the
/// comparison tests config differences, not determinism.  Compaction
/// stays off so delta_nnz/snapshot_version do not depend on when a
/// background merge lands relative to a pipelined wave.
ServeOptions replay_serve_options() {
  ServeOptions opts;
  opts.workers = 3;
  opts.shards = 2;
  opts.upgrade_threshold = 2;
  opts.compact_threshold = 0;
  return opts;
}

/// Records a two-tenant workload: registers, MTTKRP/TTV queries across
/// modes, interleaved update batches, and one query against a tensor
/// that was never registered (the error path must replay byte-for-byte
/// too).  Only REQUEST frames are recorded, exactly what the replayers
/// consume.
void record_workload(const std::string& path) {
  const std::vector<index_t> dims{36, 28, 20};
  const SparseTensor alpha = serve_test::exact_tensor(dims, 2600, 71);
  const SparseTensor beta = serve_test::exact_tensor(dims, 1400, 72);
  const auto factors = serve_test::exact_factors(dims, 6, 73);
  const auto vectors = serve_test::exact_factors(dims, 1, 74);
  std::mt19937 rng(75);

  TraceRecorder recorder(path);
  std::uint64_t id = 0;

  auto record_register = [&](const std::string& name,
                             const SparseTensor& tensor) {
    net::RegisterMsg msg;
    msg.id = ++id;
    msg.name = name;
    msg.tensor = tensor;
    recorder.record(net::MsgType::kRegister, net::encode_register(msg));
  };
  auto record_update = [&](const std::string& name, offset_t nnz) {
    net::UpdateMsg msg;
    msg.id = ++id;
    msg.name = name;
    msg.updates = serve_test::exact_batch(dims, nnz, rng);
    recorder.record(net::MsgType::kUpdate, net::encode_update(msg));
  };
  auto record_query = [&](const std::string& name, index_t mode, OpKind op) {
    net::QueryMsg msg;
    msg.id = ++id;
    msg.tensor = name;
    msg.mode = mode;
    msg.op = op;
    msg.factors = op == OpKind::kTtv ? *vectors : *factors;
    recorder.record(net::MsgType::kQuery, net::encode_query(msg));
  };

  record_register("alpha", alpha);
  record_register("beta", beta);
  // A pipelined wave per tenant and mode, an update barrier, more waves:
  // enough traffic to cross the upgrade threshold on the hot modes while
  // updates keep delta state in play.
  for (index_t mode = 0; mode < 3; ++mode) {
    record_query("alpha", mode, OpKind::kMttkrp);
    record_query("beta", mode, OpKind::kMttkrp);
  }
  record_update("alpha", 500);
  for (index_t mode = 0; mode < 3; ++mode) {
    record_query("alpha", mode, OpKind::kMttkrp);
    record_query("alpha", mode, OpKind::kTtv);
  }
  record_update("beta", 300);
  record_query("ghost", 0, OpKind::kMttkrp);  // never registered -> kError
  for (index_t mode = 0; mode < 3; ++mode) {
    record_query("beta", mode, OpKind::kMttkrp);
    record_query("alpha", mode, OpKind::kMttkrp);
  }
}

ReplayResult replay_in_process(const std::string& trace_path) {
  TensorOpService service(replay_serve_options());
  TraceReader reader(trace_path);
  return replay_trace(service, reader);
}

ReplayResult replay_over_sockets(const std::string& trace_path,
                                 std::size_t connections) {
  net::ServerOptions opts;
  opts.unix_path = test_socket_path();
  opts.serve = replay_serve_options();
  net::TensorServer server(opts);
  TraceReader reader(trace_path);
  ReplayResult result =
      replay_trace_sockets(server.unix_path(), reader, connections);
  // No admission pressure was configured, so every query must have been
  // accepted -- a rejection would silently shrink the log.
  EXPECT_EQ(server.stats().rejected, 0u);
  server.stop();
  ::unlink(opts.unix_path.c_str());
  return result;
}

// ---------------------------------------------------------------------------
// The headline oracle: N pipelined connections against a live server
// reproduce the strict one-event-at-a-time in-process replay bitwise.
// ---------------------------------------------------------------------------

TEST(MultiConnReplay, FourConnectionsMatchInProcessReplayByteForByte) {
  const std::string trace_path = test_path("oracle");
  record_workload(trace_path);

  const ReplayResult in_process = replay_in_process(trace_path);
  const ReplayResult sockets = replay_over_sockets(trace_path, 4);

  EXPECT_EQ(in_process.events, sockets.events);
  EXPECT_EQ(in_process.rejected, 0u);
  EXPECT_EQ(sockets.rejected, 0u);
  ASSERT_FALSE(in_process.log.empty());

  // The socket log is emitted pre-normalized (race-dependent ResultMsg
  // fields fixed); run the in-process log through the same normalizer
  // and the two must agree byte for byte.
  const std::vector<std::uint8_t> normalized =
      normalize_replay_log(in_process.log);
  EXPECT_EQ(normalized.size(), sockets.log.size());
  EXPECT_TRUE(normalized == sockets.log)
      << "socket replay diverged from in-process replay";

  ::unlink(trace_path.c_str());
}

// ---------------------------------------------------------------------------
// Connection-count invariance: 1, 2, and 4 pipelined connections are
// just different interleavings of the same requests, so the normalized
// logs must be identical.  (connections=1 still pipelines queries on the
// single socket.)
// ---------------------------------------------------------------------------

TEST(MultiConnReplay, ConnectionCountDoesNotChangeTheLog) {
  const std::string trace_path = test_path("conns");
  record_workload(trace_path);

  const ReplayResult one = replay_over_sockets(trace_path, 1);
  const ReplayResult two = replay_over_sockets(trace_path, 2);
  const ReplayResult four = replay_over_sockets(trace_path, 4);

  ASSERT_FALSE(one.log.empty());
  EXPECT_TRUE(one.log == two.log) << "2-connection replay diverged";
  EXPECT_TRUE(one.log == four.log) << "4-connection replay diverged";
  EXPECT_EQ(one.events, four.events);

  ::unlink(trace_path.c_str());
}

// ---------------------------------------------------------------------------
// The normalizer itself: idempotent, preserves frame count and
// non-result frames, and rejects a corrupt log rather than misparsing.
// ---------------------------------------------------------------------------

TEST(MultiConnReplay, NormalizeReplayLogIsIdempotentAndStrict) {
  const std::string trace_path = test_path("norm");
  record_workload(trace_path);

  const ReplayResult in_process = replay_in_process(trace_path);
  const std::vector<std::uint8_t> once = normalize_replay_log(in_process.log);
  const std::vector<std::uint8_t> twice = normalize_replay_log(once);
  EXPECT_TRUE(once == twice) << "normalization is not idempotent";

  // Truncating the log mid-frame must throw, not return a short log.
  std::vector<std::uint8_t> truncated = once;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(normalize_replay_log(truncated), net::ProtocolError);

  ::unlink(trace_path.c_str());
}

}  // namespace
}  // namespace bcsf::trace
