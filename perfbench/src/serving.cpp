// The serving workload, update-mix.  One TensorServer runs in this
// process with the service's production options, admission included,
// except for the pinned upgrade target and threshold (start_serving);
// queries reach it only through TensorClients over a unix socket.  The
// end-to-end run times the socket phase with tracing off; the traced run
// adds a traced socket phase and an in-process phase
// (TensorOpService::submit_batch on the same request sequence).
#include <cmath>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "net/client.hpp"
#include "net/server.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "timed_plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bcsf::OpKind;
using bcsf::net::Frame;
using bcsf::net::QueryMsg;
using bcsf::net::TensorClient;
using bcsf::net::TensorServer;

constexpr unsigned kWorkers = 4;
constexpr unsigned kShards = 4;
/// Calls per (shard, mode) before the background bcsf build starts.
constexpr double kUpgradeThreshold = 4.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Closed loop: connections x outstanding queries per connection.  Four in
/// flight keep the four workers busy without queueing past the default
/// admission watermark (4 x workers pool tasks), which a 4-shard query
/// fills four tasks at a time.
constexpr unsigned kConnections = 2;
constexpr unsigned kOutstandingPerConnection = 2;
/// update-mix: one update batch of this many nonzeros every N queries.
constexpr std::uint64_t kUpdateEvery = 24;
constexpr bcsf::offset_t kUpdateNnz = 8000;
struct Workload {
  std::string name = "x";
  bcsf::SparseTensor tensor;
  QueryInputs inputs;

  /// mttkrp:ttv:fit interleaved 4:2:1 over all modes.
  OpKind op(std::uint64_t i) const {
    const std::uint64_t slot = i % 7;
    return slot < 4 ? OpKind::kMttkrp : slot < 6 ? OpKind::kTtv : OpKind::kFit;
  }
  bcsf::index_t mode(std::uint64_t i) const {
    return static_cast<bcsf::index_t>(i % 3);
  }
};

Workload make_workload(const RunConfig& cfg) {
  Workload w;
  w.tensor = steady_tensor(cfg.seed);
  w.inputs.factors = grid_factors(w.tensor.dims(), 32, cfg.seed + 11);
  w.inputs.vectors = grid_factors(w.tensor.dims(), 1, cfg.seed + 13);
  return w;
}

/// Update batch k of update-mix: kUpdateNnz additions of {+-0.5, +-1} to
/// existing nonzeros, so nnz stays ~200k and the timed phase is stationary.
bcsf::SparseTensor make_update(const bcsf::SparseTensor& base,
                               std::uint64_t seed, std::uint64_t k) {
  bcsf::Rng rng(seed * 1000003 + k);
  bcsf::SparseTensor batch(base.dims());
  std::vector<bcsf::index_t> coords(base.order());
  static constexpr bcsf::value_t kSteps[] = {-1.0F, -0.5F, 0.5F, 1.0F};
  for (bcsf::offset_t n = 0; n < kUpdateNnz; ++n) {
    const auto z = static_cast<bcsf::offset_t>(rng.uniform(0, base.nnz() - 1));
    for (bcsf::index_t m = 0; m < base.order(); ++m) coords[m] = base.coord(m, z);
    batch.push_back(coords, kSteps[rng.uniform(0, 3)]);
  }
  return batch;
}

QueryMsg make_query(const Workload& w, std::uint64_t i) {
  QueryMsg msg;
  msg.tensor = w.name;
  msg.mode = w.mode(i);
  msg.op = w.op(i);
  msg.factors = w.inputs.for_op(msg.op);
  return msg;
}

struct Served {
  std::unique_ptr<TensorServer> server;
  std::vector<std::unique_ptr<TensorClient>> clients;
  double setup_s = 0.0;
  double to_structured_ms = 0.0;
  ~Served() {
    clients.clear();
    if (server) server->stop();
  }
};

/// Sends `msgs` over one client, at most `window` outstanding.  Set-up
/// traffic only: a refusal or error aborts the run.
void send_windowed(TensorClient& client, std::vector<QueryMsg> msgs,
                   std::size_t window) {
  std::deque<std::future<Frame>> inflight;
  auto drain_one = [&] {
    TensorClient::result_of(inflight.front().get());
    inflight.pop_front();
  };
  for (QueryMsg& msg : msgs) {
    if (inflight.size() == window) drain_one();
    inflight.push_back(client.query_async(std::move(msg)));
  }
  while (!inflight.empty()) drain_one();
}

/// Starts a server, registers the tensor, sends each mode the threshold's
/// worth of MTTKRP queries and waits until every mode serves from its
/// structured plan.
std::unique_ptr<Served> start_serving(const Workload& w, const RunConfig& cfg,
                                      int index) {
  bcsf::net::ServerOptions opts;
  opts.unix_path = cfg.out_dir + "/s" + std::to_string(getpid()) + "-" +
                   std::to_string(index) + ".sock";
  opts.serve.workers = kWorkers;
  opts.serve.shards = kShards;
  opts.serve.upgrade_format = "bcsf";
  opts.serve.upgrade_threshold = kUpgradeThreshold;
  if (cfg.trace) opts.serve.build_fn = timed_build;

  auto served = std::make_unique<Served>();
  const auto t0 = Clock::now();
  served->server = std::make_unique<TensorServer>(opts);
  for (unsigned c = 0; c < kConnections; ++c) {
    served->clients.push_back(std::make_unique<TensorClient>(opts.unix_path));
  }
  served->clients[0]->register_tensor(w.name, w.tensor);
  const auto registered = Clock::now();
  std::vector<QueryMsg> msgs;
  for (bcsf::index_t m = 0; m < 3; ++m) {
    for (int k = 0; k < static_cast<int>(kUpgradeThreshold); ++k) {
      QueryMsg msg;
      msg.tensor = w.name;
      msg.mode = m;
      msg.factors = w.inputs.factors;
      msgs.push_back(std::move(msg));
    }
  }
  send_windowed(*served->clients[0], std::move(msgs),
                kConnections * kOutstandingPerConnection);
  auto& service = served->server->service();
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  for (bcsf::index_t m = 0; m < 3; ++m) {
    while (!service.upgraded(w.name, m)) {
      if (Clock::now() > give_up) throw bcsf::Error("set-up: mode never upgraded");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const auto t1 = Clock::now();
  served->setup_s = std::chrono::duration<double>(t1 - t0).count();
  served->to_structured_ms = ms_between(registered, t1);
  return served;
}

/// Shared state of one run's timed phases: the request counter, the
/// update batches and the counters that bound what each reply may reflect.
struct Phases {
  Phases(const Workload& workload, std::uint64_t s) : w(workload), seed(s) {}
  const Workload& w;
  std::uint64_t seed;
  std::atomic<std::uint64_t> next{0};
  std::mutex update_m;
  std::vector<bcsf::SparseTensor> batches;  // guarded by update_m
  std::atomic<std::uint32_t> started{0};
  std::atomic<std::uint32_t> acked{0};

  /// Applies the next update batch before request i when it is due.
  template <typename Apply>
  void maybe_update(std::uint64_t i, Apply&& apply) {
    if (i == 0 || i % kUpdateEvery != 0) return;
    std::lock_guard<std::mutex> lock(update_m);
    const auto k = static_cast<std::uint32_t>(batches.size());
    batches.push_back(make_update(w.tensor, seed, k));
    started.store(k + 1);
    apply(batches[k]);
    acked.store(k + 1);
  }
};

struct PhaseResult {
  std::vector<Reply> replies;
  double seconds = 0.0;  ///< first send to last reply
  double bytes_per_query = 0.0;
  double fanout_ms = 0.0;
  double reduce_ms = 0.0;
};

Reply begin_reply(const Workload& w, const Phases& ph, std::uint64_t i) {
  Reply r;
  r.op = static_cast<std::uint8_t>(w.op(i));
  r.mode = w.mode(i);
  r.updates_before = ph.acked.load();
  return r;
}

/// Waits for one socket reply and decodes it into `r`.
void finish_socket_reply(Reply& r, std::future<Frame>& future,
                         Clock::time_point from, std::uint64_t request,
                         std::uint64_t rtt_id, Clock::time_point rtt_start,
                         const Phases& ph, std::size_t& reply_bytes) {
  SpanRecorder& spans = SpanRecorder::instance();
  Frame frame;
  try {
    frame = future.get();
  } catch (const bcsf::Error&) {
    r.status = Reply::kError;
    return;
  }
  const auto done = Clock::now();
  r.updates_after = ph.started.load();
  r.latency_ms = ms_between(from, done);
  r.done = done;
  reply_bytes += frame.payload.size();
  if (spans.on()) spans.add("net.query_rtt", rtt_start, done, 0, request, rtt_id);
  const auto decode_start = Clock::now();
  try {
    const bcsf::net::ResultMsg msg = TensorClient::result_of(std::move(frame));
    summarize(r, msg.output.data(), msg.scalar);
  } catch (const bcsf::net::OverloadedError&) {
    r.status = Reply::kOverloaded;
  } catch (const bcsf::Error&) {
    r.status = Reply::kError;
  }
  if (spans.on()) spans.add("net.decode", decode_start, Clock::now(), 0, request);
}

/// Sends query i over `client`; in a traced phase the explicit encode of
/// the same message is the rtt span's "net.encode" child.
std::future<Frame> send_socket_query(TensorClient& client, const Workload& w,
                                     std::uint64_t i, std::uint64_t& rtt_id,
                                     Clock::time_point& rtt_start,
                                     std::size_t& query_bytes) {
  SpanRecorder& spans = SpanRecorder::instance();
  QueryMsg msg = make_query(w, i);
  rtt_start = Clock::now();
  if (spans.on()) {
    rtt_id = spans.next_id();
    const std::vector<std::uint8_t> bytes = bcsf::net::encode_query(msg);
    query_bytes += bytes.size();
    spans.add("net.encode", rtt_start, Clock::now(), rtt_id, i + 1);
  }
  return client.query_async(std::move(msg));
}

/// Runs `body(slot)` on `slots` threads until the deadline; rethrows the
/// first exception a slot raised.
template <typename Body>
void run_slots(unsigned slots, double seconds, Body&& body) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::mutex error_m;
  std::exception_ptr error;
  for (unsigned s = 0; s < slots; ++s) {
    threads.emplace_back([&, s] {
      try {
        while (Clock::now() < deadline) body(s);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_m);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Closed loop over the socket: kConnections x kOutstandingPerConnection
/// queries in flight, each slot stamping its own reply when it resolves.
PhaseResult closed_loop_socket(Served& served, Phases& ph, double seconds) {
  const Workload& w = ph.w;
  const unsigned slots = kConnections * kOutstandingPerConnection;
  std::vector<std::vector<Reply>> per_slot(slots);
  std::vector<std::size_t> qbytes(slots, 0), rbytes(slots, 0);
  const auto start = Clock::now();
  run_slots(slots, seconds, [&](unsigned s) {
    TensorClient& client = *served.clients[s % kConnections];
    const std::uint64_t i = ph.next.fetch_add(1);
    ph.maybe_update(i, [&](const bcsf::SparseTensor& batch) {
      client.apply_updates(w.name, batch);
    });
    Reply r = begin_reply(w, ph, i);
    std::uint64_t rtt_id = 0;
    Clock::time_point rtt_start;
    const auto sent = Clock::now();
    auto future = send_socket_query(client, w, i, rtt_id, rtt_start, qbytes[s]);
    finish_socket_reply(r, future, sent, i + 1, rtt_id, rtt_start, ph, rbytes[s]);
    per_slot[s].push_back(r);
  });
  PhaseResult out;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::size_t bytes = 0;
  for (unsigned s = 0; s < slots; ++s) {
    out.replies.insert(out.replies.end(), per_slot[s].begin(), per_slot[s].end());
    bytes += qbytes[s] + rbytes[s];
  }
  out.bytes_per_query = static_cast<double>(bytes) /
                        static_cast<double>(std::max<std::size_t>(1, out.replies.size()));
  return out;
}

/// One in-process request: submit_batch -> ready, the "serve.submit" span
/// parenting the plan executes the service runs for it.
Reply serve_in_process(bcsf::TensorOpService& service, const Workload& w,
                       Phases& ph, std::uint64_t i, double& fanout_ms,
                       double& reduce_ms) {
  SpanRecorder& spans = SpanRecorder::instance();
  Reply r = begin_reply(w, ph, i);
  const OpKind op = w.op(i);
  // A private factor set per request is what lets the plan wrapper find
  // this request's span from the OpRequest it is handed.
  auto factors = std::make_shared<const std::vector<bcsf::DenseMatrix>>(
      w.inputs.for_op(op));
  bcsf::ServeRequest request(w.name, r.mode, factors, op);
  const std::uint64_t id = spans.next_id();
  spans.bind(factors.get(), id, i + 1);
  const auto start = Clock::now();
  try {
    std::vector<bcsf::ServeRequest> batch;
    batch.push_back(std::move(request));
    auto futures = service.submit_batch(std::move(batch));
    const bcsf::ServeResponse response = futures[0].get();
    const auto done = Clock::now();
    r.updates_after = ph.started.load();
    r.latency_ms = ms_between(start, done);
    r.done = done;
    spans.add("serve.submit", start, done, 0, i + 1, id);
    summarize(r, response.output.data(), response.scalar);
    fanout_ms += response.fanout_ms;
    reduce_ms += response.reduce_ms;
  } catch (const bcsf::Error&) {
    r.status = Reply::kError;
  }
  spans.unbind(factors.get());
  return r;
}

/// The in-process phase: the closed loop of the socket phase, with each
/// slot calling the service directly.
PhaseResult in_process_phase(Served& served, Phases& ph, double seconds) {
  const Workload& w = ph.w;
  auto& service = served.server->service();
  const unsigned slots = kConnections * kOutstandingPerConnection;
  std::vector<std::vector<Reply>> per_slot(slots);
  std::vector<double> fanout(slots, 0.0), reduce(slots, 0.0);
  const auto start = Clock::now();
  run_slots(slots, seconds, [&](unsigned s) {
    const std::uint64_t i = ph.next.fetch_add(1);
    ph.maybe_update(i, [&](const bcsf::SparseTensor& batch) {
      const auto t0 = Clock::now();
      service.apply_updates(w.name, bcsf::SparseTensor(batch));
      SpanRecorder::instance().add("tensor.apply_updates", t0, Clock::now(), 0,
                                   i + 1);
    });
    per_slot[s].push_back(serve_in_process(service, w, ph, i, fanout[s], reduce[s]));
  });
  PhaseResult out;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  double fanout_sum = 0.0;
  double reduce_sum = 0.0;
  for (unsigned s = 0; s < slots; ++s) {
    out.replies.insert(out.replies.end(), per_slot[s].begin(), per_slot[s].end());
    fanout_sum += fanout[s];
    reduce_sum += reduce[s];
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, out.replies.size()));
  out.fanout_ms = fanout_sum / n;
  out.reduce_ms = reduce_sum / n;
  return out;
}

/// Checks every reply against the reference format; returns mismatches
/// (refused and failed queries are counted by the caller).
std::uint64_t verify(const Workload& w, Phases& ph, TensorServer& server,
                     std::vector<Reply> replies) {
  std::vector<std::pair<int, bcsf::index_t>> keys;
  for (int op = 0; op < 3; ++op) {
    for (bcsf::index_t m = 0; m < 3; ++m) keys.emplace_back(op, m);
  }
  std::uint64_t bad = 0;
  // A reply reflects, in every shard s, the first k_s update batches for
  // some k_s in [updates_before, updates_after] (a query in flight while a
  // batch lands may see it in some shards only; without updates both
  // bounds are 0 and the only candidate is the registered tensor).  The
  // answer is linear in the tensor, so it is base + the per-shard answers
  // of each batch; every admissible combination is tried.
  auto& service = server.service();
  const std::size_t shards = service.shard_count(w.name);
  // Per-shard answers of batch k, computed on first use.
  std::map<std::uint32_t, std::vector<Answers>> batch_answers;
  auto answers_of = [&](std::uint32_t k) -> const std::vector<Answers>& {
    auto it = batch_answers.find(k);
    if (it != batch_answers.end()) return it->second;
    const bcsf::SparseTensor& batch = ph.batches[k];
    std::vector<bcsf::SparseTensor> parts(shards, bcsf::SparseTensor(batch.dims()));
    std::vector<bcsf::index_t> coords(batch.order());
    for (bcsf::offset_t z = 0; z < batch.nnz(); ++z) {
      for (bcsf::index_t m = 0; m < batch.order(); ++m) coords[m] = batch.coord(m, z);
      parts[service.shard_for_slice(w.name, coords[0])].push_back(coords,
                                                                     batch.value(z));
    }
    std::vector<Answers> out;
    for (const auto& part : parts) {
      out.push_back(part.nnz() == 0 ? Answers{}
                                    : reference_answers(part, w.inputs, keys));
    }
    return batch_answers.emplace(k, std::move(out)).first->second;
  };
  std::sort(replies.begin(), replies.end(), [](const Reply& a, const Reply& b) {
    return a.updates_before < b.updates_before;
  });
  Answers state = reference_answers(w.tensor, w.inputs, keys);
  std::uint32_t state_k = 0;  // batches folded into `state`
  for (const Reply& r : replies) {
    if (r.status != Reply::kOk) continue;
    while (state_k < r.updates_before) {
      for (const Answers& a : answers_of(state_k)) state += a;
      batch_answers.erase(state_k);
      ++state_k;
    }
    const std::pair<int, bcsf::index_t> key{r.op, r.mode};
    const std::vector<double>& base = state.out.at(key);
    const std::uint32_t span = r.updates_after - r.updates_before;
    if (std::pow(span + 1.0, static_cast<double>(shards)) > 4096.0) {
      ++bad;  // too many admissible states to enumerate: unchecked
      continue;
    }
    // Mixed-radix counter over k_s - updates_before in [0, span] per shard.
    std::vector<std::uint32_t> extra(shards, 0);
    bool ok = false;
    for (;;) {
      std::vector<double> expect = base;
      for (std::size_t s = 0; s < shards; ++s) {
        for (std::uint32_t k = 0; k < extra[s]; ++k) {
          const Answers& part = answers_of(r.updates_before + k)[s];
          const auto it = part.out.find(key);
          if (it == part.out.end()) continue;
          for (std::size_t e = 0; e < expect.size(); ++e) expect[e] += it->second[e];
        }
      }
      if (matches(r, expect)) {
        ok = true;
        break;
      }
      std::size_t s = 0;
      while (s < shards && extra[s] == span) extra[s++] = 0;
      if (s == shards) break;
      ++extra[s];
    }
    if (!ok) ++bad;
  }
  return bad;
}

struct Sampler {
  std::vector<double> depth;
  std::vector<double> delta;
  std::atomic<bool> stop{false};
  std::thread thread;

  void start(bcsf::TensorOpService& service, const std::string& name) {
    thread = std::thread([this, &service, name] {
      while (!stop.load()) {
        depth.push_back(static_cast<double>(service.queue_depth()));
        delta.push_back(service.delta_fraction(name));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  void finish() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
  ~Sampler() { finish(); }
};

struct Counters {
  std::uint64_t structured = 0, coo = 0, evictions = 0, rejects = 0,
                compactions = 0, rejected = 0;
  static Counters read(TensorServer& server, const Workload& w) {
    Counters c;
    auto& service = server.service();
    for (const auto& ts : service.tenant_stats()) {
      c.structured += ts.structured_served;
      c.coo += ts.coo_served;
    }
    c.evictions = service.eviction_count();
    c.rejects = service.upgrade_reject_count();
    c.compactions = service.compaction_count(w.name);
    c.rejected = server.stats().rejected;
    return c;
  }
};

}  // namespace

RunResult run_serving(const RunConfig& cfg) {
  RunResult out;
  const Workload w = make_workload(cfg);
  SpanRecorder& spans = SpanRecorder::instance();

  std::vector<double> setups;
  std::vector<double> to_structured;
  std::unique_ptr<Served> served;
  for (int k = 0; k < kSetups; ++k) {
    served.reset();
    served = start_serving(w, cfg, k);
    setups.push_back(served->setup_s);
    to_structured.push_back(served->to_structured_ms);
  }
  TensorServer& server = *served->server;
  Phases ph(w, cfg.seed);

  // Answered queries' latencies in the order their replies arrived.
  auto latencies = [](const PhaseResult& p) {
    std::vector<const Reply*> ok;
    for (const Reply& r : p.replies) {
      if (r.status == Reply::kOk) ok.push_back(&r);
    }
    std::sort(ok.begin(), ok.end(),
              [](const Reply* a, const Reply* b) { return a->done < b->done; });
    std::vector<double> xs;
    for (const Reply* r : ok) xs.push_back(r->latency_ms);
    return xs;
  };
  std::vector<Reply> all;
  auto keep = [&](const PhaseResult& p) {
    all.insert(all.end(), p.replies.begin(), p.replies.end());
  };

  if (!cfg.trace) {
    const Counters before = Counters::read(server, w);
    const PhaseResult p = closed_loop_socket(*served, ph, cfg.seconds);
    const double rss = peak_rss_mb();
    keep(p);
    const std::vector<double> lat = latencies(p);
    out.set("ops_per_s", static_cast<double>(lat.size()) / p.seconds, "1/s");
    out.set("latency_p50_ms", percentile(lat, 50.0), "ms");
    out.set("latency_p99_ms", percentile(lat, 99.0), "ms");
    out.set("setup_s", median(setups), "s");
    out.set("plan_mb",
            static_cast<double>(server.service().peak_plan_resident_bytes()) / 1e6,
            "MB");
    out.set("peak_rss_mb", rss, "MB");
    out.notes.push_back("latency samples: " + std::to_string(lat.size()));
    const Counters after = Counters::read(server, w);
    out.notes.push_back("refused: " + std::to_string(after.rejected - before.rejected));
  } else {
    // Untraced, then traced socket phases of equal length on the same
    // server give the tracing overhead; the in-process phase follows.
    const double part = cfg.seconds / 2.0;
    const PhaseResult plain = closed_loop_socket(*served, ph, part);
    keep(plain);
    const Counters before = Counters::read(server, w);
    Sampler sampler;
    sampler.start(server.service(), w.name);
    spans.set_on(true);
    const PhaseResult traced = closed_loop_socket(*served, ph, part);
    sampler.finish();
    const Counters after = Counters::read(server, w);
    const PhaseResult local = in_process_phase(*served, ph, part);
    spans.set_on(false);
    keep(traced);
    keep(local);

    const double socket_p50 = percentile(latencies(traced), 50.0);
    const double serve_p50 = percentile(latencies(local), 50.0);
    const double plain_p50 = percentile(latencies(plain), 50.0);
    auto span_median = [&](const std::string& name, double scale) {
      std::vector<double> xs;
      for (const Span& s : spans.snapshot(name)) xs.push_back(ms_between(s.start, s.end) * scale);
      return median(xs);
    };
    const double shard_runs = static_cast<double>(
        (after.structured - before.structured) + (after.coo - before.coo));
    out.set("serve.latency_p50_ms", serve_p50, "ms");
    out.set("serve.overhead_ms", median(spans.self_ms("serve.submit")), "ms");
    out.set("serve.queue_depth_max",
            sampler.depth.empty() ? 0.0 : *std::max_element(sampler.depth.begin(), sampler.depth.end()),
            "count");
    out.set("serve.queue_depth_mean", mean(sampler.depth), "count");
    out.set("serve.plan_hit_rate",
            shard_runs == 0 ? 0.0
                            : static_cast<double>(after.structured - before.structured) /
                                  shard_runs,
            "ratio");
    out.set("serve.evictions", static_cast<double>(after.evictions - before.evictions), "count");
    out.set("serve.upgrade_rejects", static_cast<double>(after.rejects - before.rejects),
            "count");
    out.set("serve.fanout_ms", local.fanout_ms, "ms");
    out.set("serve.reduce_ms", local.reduce_ms, "ms");
    out.set("serve.compactions",
            static_cast<double>(after.compactions - before.compactions), "count");
    out.set("serve.time_to_structured_ms", median(to_structured), "ms");
    out.set("tensor.apply_updates_ms", span_median("tensor.apply_updates", 1.0), "ms");
    out.set("tensor.delta_frac_max",
            sampler.delta.empty() ? 0.0 : *std::max_element(sampler.delta.begin(), sampler.delta.end()),
            "ratio");
    out.set("net.encode_us", span_median("net.encode", 1e3), "us");
    out.set("net.decode_us", span_median("net.decode", 1e3), "us");
    out.set("net.bytes_per_query", traced.bytes_per_query, "bytes");
    out.set("net.rejected", static_cast<double>(after.rejected - before.rejected), "count");
    out.set("net.overhead_ms", socket_p50 - serve_p50, "ms");
    out.set("bench.trace_overhead_frac",
            plain_p50 > 0 ? socket_p50 / plain_p50 - 1.0 : 0.0, "ratio");
    out.set("tensor.partition_ms", probe_partition_ms(w.tensor), "ms");
    // update-mix never calls cpd_als.
    out.set("cpd.mttkrp_share", 0.0, "ratio");
    out.set("linalg.solve_us", 0.0, "us");
  }

  std::uint64_t failed = 0;
  for (const Reply& r : all) {
    if (r.status != Reply::kOk) ++failed;
  }
  const std::uint64_t wrong = verify(w, ph, server, all);
  out.attempted = all.size();
  out.failed = failed + wrong;
  out.wrong = wrong;
  if (!cfg.trace) {
    out.set("ok_frac",
            all.empty() ? 0.0
                        : 1.0 - static_cast<double>(out.failed) /
                                    static_cast<double>(all.size()),
            "ratio");
  }
  out.notes.push_back("wrong answers: " + std::to_string(wrong) +
                      ", refused/failed: " + std::to_string(failed));
  return out;
}

}  // namespace perfbench
