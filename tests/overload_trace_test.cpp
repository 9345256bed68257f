// Overload-under-record regression test (DESIGN.md §9/§10): a trace
// recorded while the server is shedding load must (a) preserve the
// rejected count -- kOverloaded replies are the ONLY trace of a rejected
// query, since admission runs before the recorder -- and (b) replay
// cleanly and deterministically in-process, where no admission control
// exists.
//
// Overload is manufactured deterministically, not with sleeps: the
// server runs ONE worker with max_in_flight=1, and an injected
// ConcurrentPlanCache::BuildFn blocks the very first plan build on a
// test-controlled gate.  The first query is admitted and then parks the
// sole worker inside the gated build; every query pipelined behind it on
// the same connection reaches admission with the in-flight count already
// at the cap, so each is rejected with kOverloaded -- no timing window
// anywhere.
//
// Carries the `concurrency` ctest label: server reader/writer threads,
// the blocked worker, and the test thread all interleave under TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/format_registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"
#include "trace/trace.hpp"

namespace bcsf::trace {
namespace {

std::string test_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/bcsf_overload_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter.fetch_add(1)) + ".trace";
}

std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/bcsf_overload_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

template <typename Getter>
bool wait_for(Getter getter, std::uint64_t want, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (getter() < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// The service shape shared by the recording server and the in-process
/// replay: one worker, one shard, no background work -- every response
/// field is then a pure function of the request sequence.
ServeOptions overload_serve_options() {
  ServeOptions opts;
  opts.workers = 1;
  opts.shards = 1;
  opts.upgrade_format = "coo";
  opts.compact_threshold = 0;
  return opts;
}

TEST(OverloadTrace, RecordedOverloadReplaysWithRejectedCountPreserved) {
  constexpr int kRejectedQueries = 4;
  const std::vector<index_t> dims{30, 24, 18};
  const SparseTensor tensor = serve_test::exact_tensor(dims, 1800, 91);
  const auto factors = serve_test::exact_factors(dims, 5, 92);
  const std::string trace_path = test_path("overload");

  // The gate: the first build waits here.  shared_future so the build_fn
  // copy is cheap and a second build (there is none in this config, but
  // the fn must stay reusable) sails through once released.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();

  net::ResultMsg live_result;
  {
    net::ServerOptions opts;
    opts.unix_path = test_socket_path();
    opts.serve = overload_serve_options();
    opts.serve.build_fn = [gate](const std::string& format,
                                 const SparseTensor& t, index_t mode,
                                 const PlanOptions& plan_opts) {
      gate.wait();
      return FormatRegistry::instance().create(format, t, mode, plan_opts);
    };
    opts.max_in_flight = 1;
    opts.record_path = trace_path;
    net::TensorServer server(opts);

    net::TensorClient client(server.unix_path());
    client.register_tensor("hot", tensor);

    net::QueryMsg query;
    query.tensor = "hot";
    query.mode = 0;
    query.op = OpKind::kMttkrp;
    query.factors = *factors;

    // Query 1 is admitted (in-flight 0 -> 1) and parks the single worker
    // inside the gated build.  The reader dispatches frames of one
    // connection strictly in order, so by the time each follow-up query
    // reaches admission the in-flight count is already at the cap.
    std::future<net::Frame> first = client.query_async(query);
    std::vector<std::future<net::Frame>> shed;
    for (int i = 0; i < kRejectedQueries; ++i) {
      shed.push_back(client.query_async(query));
    }
    ASSERT_TRUE(wait_for([&] { return server.stats().rejected; },
                         kRejectedQueries))
        << "server never rejected the pipelined burst";

    release.set_value();  // un-park the worker; query 1 completes

    // FIFO writer: the pending first response leaves before the shed
    // replies, but all five futures resolve once it does.
    live_result = net::TensorClient::result_of(first.get());
    for (auto& f : shed) {
      net::Frame frame = f.get();
      EXPECT_EQ(frame.type, net::MsgType::kOverloaded);
    }
    EXPECT_EQ(server.stats().rejected,
              static_cast<std::uint64_t>(kRejectedQueries));
    server.stop();
    ::unlink(opts.unix_path.c_str());
  }  // server scope: trace file is complete and closed

  // Replay the trace in-process.  The rejected queries were never
  // recorded as requests, so the replay sees 2 events (register + the
  // one admitted query) -- but the kOverloaded replies in the trace
  // carry the rejected count through.
  TensorOpService service(overload_serve_options());
  TraceReader reader(trace_path);
  const ReplayResult replay = replay_trace(service, reader);
  EXPECT_EQ(replay.events, 2u);
  EXPECT_EQ(replay.rejected, static_cast<std::size_t>(kRejectedQueries));
  ASSERT_FALSE(replay.log.empty());

  // Determinism: a second fresh replay produces the identical log.
  TensorOpService service2(overload_serve_options());
  TraceReader reader2(trace_path);
  const ReplayResult again = replay_trace(service2, reader2);
  EXPECT_TRUE(replay.log == again.log) << "overload trace replay diverged";

  // The replayed answer is bitwise the live answer: walk the replay log
  // to its kResult frame and compare payload-for-payload (exact-grid
  // inputs; same service shape; recorded request carries the client's
  // id, so even the ids line up).
  bool found_result = false;
  std::size_t pos = 0;
  while (pos + 5 <= replay.log.size()) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(replay.log[pos]) |
        (static_cast<std::uint32_t>(replay.log[pos + 1]) << 8) |
        (static_cast<std::uint32_t>(replay.log[pos + 2]) << 16) |
        (static_cast<std::uint32_t>(replay.log[pos + 3]) << 24);
    const auto type = static_cast<net::MsgType>(replay.log[pos + 4]);
    ASSERT_LE(pos + 5 + len, replay.log.size());
    if (type == net::MsgType::kResult) {
      const net::ResultMsg replayed = net::decode_result(
          std::span<const std::uint8_t>(replay.log).subspan(pos + 5, len));
      EXPECT_EQ(replayed.id, live_result.id);
      EXPECT_TRUE(serve_test::bitwise_equal(live_result.output,
                                            replayed.output));
      found_result = true;
    }
    pos += 5 + len;
  }
  EXPECT_TRUE(found_result) << "replay log holds no kResult frame";

  ::unlink(trace_path.c_str());
}

// A trace recorded WITHOUT overload reports rejected == 0 -- the counter
// counts kOverloaded frames, not queries.
TEST(OverloadTrace, CleanTraceReportsZeroRejected) {
  const std::vector<index_t> dims{30, 24, 18};
  const SparseTensor tensor = serve_test::exact_tensor(dims, 1200, 93);
  const auto factors = serve_test::exact_factors(dims, 5, 94);
  const std::string trace_path = test_path("clean");

  {
    net::ServerOptions opts;
    opts.unix_path = test_socket_path();
    opts.serve = overload_serve_options();
    opts.record_path = trace_path;
    net::TensorServer server(opts);
    net::TensorClient client(server.unix_path());
    client.register_tensor("calm", tensor);
    net::QueryMsg query;
    query.tensor = "calm";
    query.mode = 1;
    query.factors = *factors;
    (void)client.query(query);
    server.stop();
    ::unlink(opts.unix_path.c_str());
  }

  TensorOpService service(overload_serve_options());
  TraceReader reader(trace_path);
  const ReplayResult replay = replay_trace(service, reader);
  EXPECT_EQ(replay.events, 2u);
  EXPECT_EQ(replay.rejected, 0u);
  ::unlink(trace_path.c_str());
}

}  // namespace
}  // namespace bcsf::trace
