// End-to-end tests for the tensord front-end (net/server.hpp +
// net/client.hpp, DESIGN.md §9): the full register/query/update dialogue
// over a real unix-domain socket, protocol robustness against malformed
// frames (the server must drop at most the offending CONNECTION, never
// exit), admission control under a saturated one-worker pool, and the
// graceful-shutdown drain guarantee (every accepted query is answered).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"

namespace bcsf::net {
namespace {

/// Unique per-test socket path (unix socket paths are ~100 chars max, so
/// stay in /tmp rather than the build tree).
std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/bcsf_tensord_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ServerOptions base_options() {
  ServerOptions opts;
  opts.unix_path = test_socket_path();
  opts.serve.workers = 2;
  opts.serve.shards = 2;
  opts.serve.upgrade_format = "coo";  // deterministic formats/timing
  opts.serve.compact_threshold = 0;
  return opts;
}

/// Raw client socket for speaking deliberately broken protocol.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_OK();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
    ASSERT_OK();
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  int fd() const { return fd_; }
  void send_bytes(const void* data, std::size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
  }

 private:
  void ASSERT_OK() { ASSERT_GE(fd_, 0) << "raw connect failed"; }
  int fd_ = -1;
};

/// Polls a stats counter until it reaches `want` (the reader threads
/// process asynchronously) or a deadline passes.
template <typename Getter>
bool wait_for(Getter getter, std::uint64_t want, int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (getter() < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

QueryMsg make_query(const std::string& tensor, index_t mode,
                    const std::vector<DenseMatrix>& factors,
                    OpKind op = OpKind::kMttkrp) {
  QueryMsg msg;
  msg.tensor = tensor;
  msg.mode = mode;
  msg.op = op;
  msg.factors = factors;
  return msg;
}

// ---------------------------------------------------------------------------
// The happy path: the socket round trip computes exactly what the
// in-process service computes.
// ---------------------------------------------------------------------------

TEST(TensordServer, RegisterQueryUpdateMatchesInProcessService) {
  const std::vector<index_t> dims{40, 30, 20};
  const SparseTensor x = serve_test::exact_tensor(dims, 2500, 51);
  const auto factors = serve_test::exact_factors(dims, 8, 52);
  std::mt19937 rng(53);
  const SparseTensor batch = serve_test::exact_batch(dims, 600, rng);

  // Reference: a monolithic single-worker service (the exact-grid inputs
  // make every path bitwise reproducible, so sharded-over-socket must
  // equal monolithic-in-process).
  ServeOptions ref_opts;
  ref_opts.workers = 1;
  ref_opts.upgrade_format = "coo";
  ref_opts.compact_threshold = 0;
  TensorOpService reference(ref_opts);
  reference.register_tensor("t", share_tensor(SparseTensor(x)));

  TensorServer server(base_options());
  TensorClient client(server.unix_path());
  client.ping();
  client.register_tensor("t", x);

  for (const index_t mode : {index_t{0}, index_t{1}}) {
    SCOPED_TRACE(mode);
    const ResultMsg res = client.query(make_query("t", mode, *factors));
    const ServeResponse want =
        reference.submit({"t", mode, factors}).get();
    EXPECT_EQ(res.shards, 2u);
    EXPECT_EQ(res.snapshot_version, 0u);
    EXPECT_TRUE(serve_test::bitwise_equal(want.output, res.output));
  }

  // Updates move the version on both sides and stay bitwise equal.
  const std::uint64_t version = client.apply_updates("t", batch);
  EXPECT_GT(version, 0u);
  reference.apply_updates("t", SparseTensor(batch));
  const ResultMsg after = client.query(make_query("t", 0, *factors));
  const ServeResponse want = reference.submit({"t", 0, factors}).get();
  EXPECT_GT(after.delta_nnz, 0u);
  EXPECT_TRUE(serve_test::bitwise_equal(want.output, after.output));

  // FIT rides the same socket: scalar result, empty output.
  const ResultMsg fit =
      client.query(make_query("t", 0, *factors, OpKind::kFit));
  const ServeResponse fit_want =
      reference.submit({"t", 0, factors, OpKind::kFit}).get();
  EXPECT_EQ(fit.scalar, fit_want.scalar);

  const auto stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.requests, 6u);
}

// ---------------------------------------------------------------------------
// Protocol robustness: each malformed frame costs at most the connection.
// ---------------------------------------------------------------------------

TEST(TensordServer, UnknownTagGetsErrorReplyAndKeepsConnection) {
  TensorServer server(base_options());
  RawConn raw(server.unix_path());

  // Unknown-but-well-framed tag: framing stays trustworthy, so the
  // server answers kError and keeps serving THIS connection.
  const auto id_payload = encode_id(99);
  write_frame(raw.fd(), static_cast<MsgType>(200), id_payload);
  Frame reply;
  ASSERT_TRUE(read_frame(raw.fd(), reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(decode_error(reply.payload).id, 99u);

  // The same connection still answers a well-formed ping.
  write_frame(raw.fd(), MsgType::kPing, encode_id(100));
  ASSERT_TRUE(read_frame(raw.fd(), reply));
  EXPECT_EQ(reply.type, MsgType::kAck);
  EXPECT_EQ(decode_ack(reply.payload).id, 100u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(TensordServer, MalformedFramesDropConnectionButServerStaysUp) {
  TensorServer server(base_options());

  {  // Truncated header: 2 of the 4 length bytes, then EOF.
    RawConn raw(server.unix_path());
    const std::uint8_t half[2] = {0x08, 0x00};
    raw.send_bytes(half, sizeof(half));
  }
  EXPECT_TRUE(wait_for([&] { return server.stats().protocol_errors; }, 1));

  {  // Oversize length: larger than kMaxFramePayload.
    RawConn raw(server.unix_path());
    std::uint8_t header[5] = {};
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(header, &huge, sizeof(huge));
    header[4] = static_cast<std::uint8_t>(MsgType::kPing);
    raw.send_bytes(header, sizeof(header));
  }
  EXPECT_TRUE(wait_for([&] { return server.stats().protocol_errors; }, 2));

  {  // Mid-request disconnect: header promises 100 bytes, 10 arrive.
    RawConn raw(server.unix_path());
    std::uint8_t header[5] = {};
    const std::uint32_t len = 100;
    std::memcpy(header, &len, sizeof(len));
    header[4] = static_cast<std::uint8_t>(MsgType::kQuery);
    raw.send_bytes(header, sizeof(header));
    const std::uint8_t partial[10] = {};
    raw.send_bytes(partial, sizeof(partial));
  }
  EXPECT_TRUE(wait_for([&] { return server.stats().protocol_errors; }, 3));

  {  // Well-framed garbage payload: decode_query throws ProtocolError.
    RawConn raw(server.unix_path());
    const std::vector<std::uint8_t> garbage(16, 0xFF);
    write_frame(raw.fd(), MsgType::kQuery, garbage);
  }
  EXPECT_TRUE(wait_for([&] { return server.stats().protocol_errors; }, 4));

  // After four hostile connections the server still serves a real one.
  TensorClient client(server.unix_path());
  client.ping();
  EXPECT_EQ(server.stats().protocol_errors, 4u);
}

// ---------------------------------------------------------------------------
// Admission control under a saturated pool.
// ---------------------------------------------------------------------------

TEST(TensordServer, SaturatedPoolRejectsWithOverloadedAndRecovers) {
  ServerOptions opts = base_options();
  opts.serve.workers = 1;
  opts.serve.shards = 1;
  opts.max_in_flight = 1;  // the second concurrent query must bounce
  TensorServer server(opts);

  const std::vector<index_t> dims{200, 300, 400};
  const SparseTensor x = serve_test::exact_tensor(dims, 200000, 61);
  const auto factors = serve_test::exact_factors(dims, 32, 62);

  TensorClient client(server.unix_path());
  client.register_tensor("t", x);

  // Pipeline a burst: the reader admits (or bounces) them far faster
  // than the single worker can compute 200k-nnz rank-32 MTTKRPs.
  constexpr int kBurst = 24;
  std::vector<std::future<Frame>> in_flight;
  for (int i = 0; i < kBurst; ++i) {
    in_flight.push_back(client.query_async(make_query("t", 0, *factors)));
  }
  int results = 0;
  int overloaded = 0;
  for (auto& f : in_flight) {
    const Frame frame = f.get();
    if (frame.type == MsgType::kResult) {
      ++results;
    } else if (frame.type == MsgType::kOverloaded) {
      ++overloaded;
    } else {
      ADD_FAILURE() << "unexpected reply type "
                    << static_cast<int>(frame.type);
    }
  }
  EXPECT_EQ(results + overloaded, kBurst);
  EXPECT_GE(results, 1) << "admission must never reject an idle server";
  EXPECT_GE(overloaded, 1) << "a 1-deep admission window must bounce a burst";
  EXPECT_EQ(server.stats().rejected, static_cast<std::uint64_t>(overloaded));

  // Rejection is about LOAD, not state: the drained server serves again.
  const ResultMsg ok = client.query(make_query("t", 0, *factors));
  EXPECT_EQ(ok.output.rows(), dims[0]);
}

// ---------------------------------------------------------------------------
// Graceful shutdown drains every accepted query.
// ---------------------------------------------------------------------------

TEST(TensordServer, GracefulShutdownAnswersEveryAcceptedQuery) {
  ServerOptions opts = base_options();
  opts.max_in_flight = 64;
  opts.queue_watermark = 1024;  // admission is not under test here
  TensorServer server(opts);

  const std::vector<index_t> dims{48, 36, 24};
  const SparseTensor x = serve_test::exact_tensor(dims, 3000, 71);
  const auto factors = serve_test::exact_factors(dims, 8, 72);

  TensorClient client(server.unix_path());
  client.register_tensor("t", x);

  constexpr int kQueries = 8;
  std::vector<std::future<Frame>> in_flight;
  for (int i = 0; i < kQueries; ++i) {
    in_flight.push_back(client.query_async(
        make_query("t", static_cast<index_t>(i % dims.size()), *factors)));
  }
  // Shutdown lands behind the queries on the same connection: all of
  // them were accepted first, so ALL must be answered before the server
  // exits -- the zero-stranded-futures guarantee.
  client.shutdown_server();
  server.wait();
  server.stop();

  for (auto& f : in_flight) {
    const Frame frame = f.get();  // a stranded future would hang/throw here
    EXPECT_EQ(frame.type, MsgType::kResult);
  }
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, static_cast<std::uint64_t>(kQueries) + 2);
  EXPECT_EQ(stats.rejected, 0u);
}

}  // namespace
}  // namespace bcsf::net
