// Tests for the sairedis-style trace record/replay pipeline (trace/
// trace.hpp, DESIGN.md §9).  The property under test is the determinism
// contract: replaying the same trace twice -- even with different worker
// counts, with background upgrades enabled -- produces byte-identical
// response logs, because replay_trace drains the service to idle after
// every event.  Plus the failure edges: corrupt headers and truncated
// tails must throw ProtocolError, and requests that FAIL during replay
// (unknown tensor) must replay deterministically as kError frames.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"
#include "trace/trace.hpp"

namespace bcsf::trace {
namespace {

std::string test_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/bcsf_trace_test_" + std::to_string(::getpid()) + "_" +
         std::string(tag) + "_" + std::to_string(counter.fetch_add(1)) +
         ".trace";
}

/// Replays `path` against a fresh service with the given worker count.
ReplayResult replay_with_workers(const std::string& path, unsigned workers) {
  ServeOptions opts;
  opts.workers = workers;
  opts.shards = 2;
  opts.upgrade_threshold = 2;  // upgrades land DURING the trace
  TensorOpService service(opts);
  TraceReader reader(path);
  return replay_trace(service, reader);
}

/// Records a small but representative dialogue: register, two update
/// batches, and a mixed op stream (MTTKRP on two modes, TTV, FIT with
/// lambda, and one query for a tensor that was never registered).
std::string record_sample_trace() {
  const std::string path = test_path("sample");
  TraceRecorder recorder(path);
  std::uint64_t id = 0;

  const std::vector<index_t> dims{48, 32, 24};

  net::RegisterMsg reg;
  reg.id = ++id;
  reg.name = "t";
  reg.tensor = serve_test::exact_tensor(dims, 3000, 81);
  recorder.record(net::MsgType::kRegister, net::encode_register(reg));

  const auto factors = serve_test::exact_factors(dims, 6, 82);
  const auto vectors = serve_test::exact_factors(dims, 1, 83);
  std::mt19937 rng(84);

  auto record_query = [&](index_t mode, OpKind op, bool with_lambda,
                          const std::vector<DenseMatrix>& f) {
    net::QueryMsg msg;
    msg.id = ++id;
    msg.tensor = "t";
    msg.mode = mode;
    msg.op = op;
    msg.factors = f;
    if (with_lambda) {
      msg.has_lambda = true;
      msg.lambda.assign(f[0].cols(), 0.5F);
    }
    recorder.record(net::MsgType::kQuery, net::encode_query(msg));
  };

  record_query(0, OpKind::kMttkrp, false, *factors);
  record_query(1, OpKind::kMttkrp, false, *factors);  // crosses threshold

  net::UpdateMsg upd;
  upd.id = ++id;
  upd.name = "t";
  upd.updates = serve_test::exact_batch(dims, 400, rng);
  recorder.record(net::MsgType::kUpdate, net::encode_update(upd));

  record_query(0, OpKind::kTtv, false, *vectors);
  record_query(0, OpKind::kFit, true, *factors);

  upd.id = ++id;
  upd.updates = serve_test::exact_batch(dims, 400, rng);
  recorder.record(net::MsgType::kUpdate, net::encode_update(upd));

  record_query(2, OpKind::kMttkrp, false, *factors);

  // A request that FAILS: the replayer must log it as a kError frame,
  // not die -- failures are part of the deterministic dialogue.
  net::QueryMsg ghost;
  ghost.id = ++id;
  ghost.tensor = "ghost";
  ghost.mode = 0;
  ghost.factors = *factors;
  recorder.record(net::MsgType::kQuery, net::encode_query(ghost));

  return path;  // recorder closes on scope exit
}

// ---------------------------------------------------------------------------

TEST(TraceReplay, ReplayIsByteIdenticalAcrossRunsAndWorkerCounts) {
  const std::string path = record_sample_trace();

  const ReplayResult a = replay_with_workers(path, 2);
  EXPECT_EQ(a.events, 9u);  // 1 register + 2 updates + 6 queries
  EXPECT_EQ(a.skipped, 0u);
  EXPECT_FALSE(a.log.empty());

  const ReplayResult b = replay_with_workers(path, 2);
  EXPECT_EQ(a.log, b.log) << "same-config replay diverged";

  // The contract is stronger: the idle barrier after every event makes
  // the log independent of the worker count too.
  const ReplayResult c = replay_with_workers(path, 4);
  EXPECT_EQ(c.events, a.events);
  EXPECT_EQ(a.log, c.log) << "replay depends on the worker count";
}

TEST(TraceReplay, ServerRecordedTraceRoundTrips) {
  const std::string trace_path = test_path("server");
  {
    net::ServerOptions opts;
    opts.unix_path = test_path("sock");
    opts.serve.workers = 2;
    opts.serve.shards = 2;
    opts.serve.upgrade_format = "coo";
    opts.serve.compact_threshold = 0;
    opts.record_path = trace_path;
    net::TensorServer server(opts);

    const std::vector<index_t> dims{32, 24, 16};
    const auto factors = serve_test::exact_factors(dims, 4, 92);
    std::mt19937 rng(93);

    net::TensorClient client(server.unix_path());
    client.register_tensor("t", serve_test::exact_tensor(dims, 1500, 91));
    net::QueryMsg q;
    q.tensor = "t";
    q.mode = 0;
    q.factors = *factors;
    client.query(q);
    client.apply_updates("t", serve_test::exact_batch(dims, 200, rng));
    q.mode = 1;
    client.query(q);
    // Server (and recorder) close before the trace file is read back.
  }

  // The file holds the full dialogue; replay skips the responses.
  const ReplayResult a = replay_with_workers(trace_path, 2);
  EXPECT_EQ(a.events, 4u);  // register + query + update + query
  EXPECT_GE(a.skipped, 4u) << "recorded responses should be skipped";

  const ReplayResult b = replay_with_workers(trace_path, 3);
  EXPECT_EQ(a.log, b.log) << "server-recorded trace replay diverged";
}

TEST(TraceReplay, CorruptHeaderThrowsProtocolError) {
  const std::string path = test_path("garbage");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a trace file";
  }
  EXPECT_THROW(TraceReader reader(path), net::ProtocolError);
}

TEST(TraceReplay, TruncatedTailThrowsProtocolError) {
  const std::string path = test_path("truncated");
  { TraceRecorder recorder(path); }  // valid header, nothing else
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char garbage[3] = {0x40, 0x00, 0x00};  // partial length word
    out.write(garbage, sizeof(garbage));
  }
  TraceReader reader(path);
  net::Frame frame;
  EXPECT_THROW(reader.next(frame), net::ProtocolError);
}

TEST(TraceReplay, MissingFileThrows) {
  EXPECT_THROW(TraceReader reader(test_path("never-written")),
               net::NetError);
}

}  // namespace
}  // namespace bcsf::trace
