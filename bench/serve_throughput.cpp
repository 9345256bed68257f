// Serving-layer throughput: requests/sec through TensorOpService as the
// worker pool grows (DESIGN.md §5-§8).  Each run fires a fixed request
// load (round-robin over modes, shared factor set) at a fresh service and
// times admission-to-drain; the table also reports per-request latency
// percentiles and how much of the traffic was served before vs after the
// async B-CSF upgrade, so the serve-then-upgrade amortization story is
// visible in one row.
//
// --shards=K,K,... runs the whole sweep once per shard count
// (ServeOptions::shards, DESIGN.md §8).  Each row additionally records
// TIME-TO-STRUCTURED -- the wall time until every shard of mode 0 swapped
// in its structured plan, polled between waves -- and the per-shard
// build seconds, so the parallel-shard-build win (K builds of nnz/K
// overlapping on the pool vs one monolithic sort) is measurable:
// compare the time_to_structured_ms of --shards=4 against --shards=1.
//
// --op-mix=W:W:W sets integer weights for the mttkrp:ttv:fit traffic mix
// (default 1:0:0 = the MTTKRP-only workload of earlier baselines); ops
// are interleaved deterministically in that ratio and per-op p50/p99
// latencies land in the table and the JSON record.
//
// Traffic arrives in waves (--batch requests per wave, each drained
// before the next) rather than one burst, so the background upgrade task
// gets pool time mid-run exactly as it would under continuous load.
// With --update-every=N an additive COO update batch is applied every N
// requests, exercising the snapshot/delta/compaction path of §6 (routed
// per shard under §8: only the shards a batch touches version-bump or
// compact).
//
// Each row also reports the serving layer's output-combining overhead
// (DESIGN.md §8): mean per-request fan-out latency (fanout_ms, submit to
// last shard finishing) and reduce latency (reduce_ms, combining shard
// results into the response), plus which combine path dominated --
// "disjoint" when partition-mode requests skipped the K-way reduce,
// "merge" when only the double-reduce ran, "single" for one-shard
// tensors.  Compare shards=4 vs shards=1 at equal workers: the disjoint
// path plus batch-amortized fan-out is what makes sharding pay on
// req/s and p99, not just on time_to_structured.
//
// Record/replay (DESIGN.md §9): --record=PATH writes the FIRST
// (shards, workers) run's traffic -- register, updates, every query --
// to a tensord trace file (trace/TraceRecorder), so the CI replay gate
// and tools/trace_replay can re-serve exactly this workload.  --trace=
// PATH inverts it: instead of the synthetic wave workload, the run
// replays a recorded trace's events sequentially against each
// (shards, workers) service and reports the same table -- a recorded
// production workload becomes a repeatable benchmark input.
//
// Multi-tenant fleet mode (DESIGN.md §10): --tenants=N registers N
// tensors of harmonically decreasing nnz (tenant 0 largest) and drives a
// Zipf(--zipf=S) request stream across them -- hot tenants are also the
// big ones, so structured-plan storage concentrates where the traffic
// is.  Every (shards, workers) config runs TWICE over the identical
// request sequence: once unbounded (to measure the resident peak), once
// with --budget (either absolute bytes or "NN%" of that measured peak).
// Tenant workloads use EXACT-GRID values (tensor values in {1..3} step
// 0.5, factors multiples of 0.25 in [-1, 1]), which keeps every kernel
// sum exactly representable -- so the budgeted pass, with its
// evictions and COO fallbacks, must produce BITWISE the same responses
// as the unbounded pass (the budget_match column / CI gate).  Rows add
// resident-bytes accounting, the structured-plan hit rate, and the
// eviction count.  Tenant mode is query-only and excludes
// --record/--trace.
//
// --json <path> additionally writes the machine-readable result record
// described by bench/schema/BENCH_serve.schema.json (the perf-trajectory
// format, BENCH_serve/v6; BENCH_serve.json at the repo root is a
// committed baseline).
//
//   ./serve_throughput [--requests=N] [--batch=N] [--nnz=N] [--rank=R]
//                      [--threads=1,2,4,8] [--shards=1,4] [--threshold=N]
//                      [--format=bcsf] [--op-mix=4:2:1] [--update-every=N]
//                      [--update-nnz=N] [--json=path] [--record=path]
//                      [--trace=path] [--tenants=N] [--zipf=S]
//                      [--budget=BYTES|NN%]
#include "bench_util.hpp"
#include "net/convert.hpp"
#include "net/wire.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <array>
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <unordered_set>
#include <vector>

namespace {

/// Percentile over a copy (nearest-rank on the sorted sample).
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

struct OpStats {
  int count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct ShardTiming {
  double build_s = 0.0;  ///< build work in the shard's final generation
  bool upgraded = false; ///< structured delegate live for mode 0 at drain
};

struct RunRow {
  unsigned shards = 1;
  unsigned workers = 0;
  double req_per_s = 0.0;
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Wall ms until EVERY shard of mode 0 served structured (polled per
  /// wave; -1 = the upgrade never landed during the run).
  double time_to_structured_ms = -1.0;
  int pre_upgrade = 0;
  int post_upgrade = 0;
  /// Mean per-request fan-out / reduce overhead (ServeResponse timings).
  double fanout_ms = 0.0;
  double reduce_ms = 0.0;
  /// Strongest combine path observed: disjoint > merge > single.
  bcsf::ReducePath reduce_path = bcsf::ReducePath::kSingle;
  std::string final_format;
  std::uint64_t compactions = 0;
  std::uint64_t final_version = 0;
  /// Queries refused by admission control.  Always 0 here: the bench
  /// drives the service in-process, and admission lives in the tensord
  /// front-end -- the column exists so v5 rows from socket-driven runs
  /// stay comparable.
  std::uint64_t rejected = 0;
  int completed = 0;  ///< requests actually served (trace runs vary)
  // --- storage-budget accounting (BENCH_serve/v6, DESIGN.md §10) ---
  int tenants = 0;                        ///< 0 = single-tenant mode
  std::uint64_t budget_bytes = 0;         ///< 0 = unbounded pass
  std::uint64_t resident_peak_bytes = 0;  ///< peak structured-plan bytes
  std::uint64_t resident_final_bytes = 0; ///< plan + delta bytes at drain
  /// Fraction of queries served by a structured plan (vs COO fallback).
  double plan_hit_rate = 0.0;
  std::uint64_t evictions = 0;
  /// True iff resident bytes never exceeded the budget at any wave
  /// boundary (vacuously true for unbounded rows).
  bool under_budget = true;
  /// True iff every response of the budgeted pass was BITWISE equal to
  /// the unbounded pass (vacuously true for unbounded rows).
  bool budget_match = true;
  // --- planning-latency accounting (BENCH_serve/v7, DESIGN.md §12) ---
  /// Total wall ms the service spent resolving upgrade policy across the
  /// run, and the number of decisions that covers.  Every resolution
  /// reads O(S) sketch state, so this column stays flat as nnz grows.
  double policy_ms = 0.0;
  std::uint64_t policy_resolutions = 0;
  std::vector<ShardTiming> shard_timings;
  OpStats ops[3];  // indexed by OpKind
};

/// Parses "W:W:W" integer weights for mttkrp:ttv:fit; exits with a
/// usage message on malformed input instead of throwing out of main.
std::array<int, 3> parse_op_mix(const std::string& spec) {
  std::array<int, 3> weights = {1, 0, 0};
  std::stringstream ss(spec);
  std::string tok;
  for (int i = 0; i < 3 && std::getline(ss, tok, ':'); ++i) {
    std::size_t consumed = 0;
    int value = 0;
    try {
      value = std::stoi(tok, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != tok.size() || value < 0) {
      std::cerr << "bad --op-mix '" << spec
                << "': expected nonnegative integer weights W:W:W "
                   "(mttkrp:ttv:fit)\n";
      std::exit(1);
    }
    weights[static_cast<std::size_t>(i)] = value;
  }
  if (weights[0] + weights[1] + weights[2] == 0) weights[0] = 1;
  return weights;
}

/// Deterministic interleaving: request i gets the op of slot (i mod
/// total-weight) in the mttkrp/ttv/fit weight partition.
bcsf::OpKind op_for_request(int issued, const std::array<int, 3>& weights) {
  const int total = weights[0] + weights[1] + weights[2];
  const int slot = issued % total;
  if (slot < weights[0]) return bcsf::OpKind::kMttkrp;
  if (slot < weights[0] + weights[1]) return bcsf::OpKind::kTtv;
  return bcsf::OpKind::kFit;
}

std::vector<unsigned> parse_unsigned_list(const std::string& spec) {
  std::vector<unsigned> out;
  std::stringstream ss(spec);
  for (std::string tok; std::getline(ss, tok, ',');) {
    out.push_back(static_cast<unsigned>(std::stoul(tok)));
  }
  return out;
}

/// --budget spec: "NN%" = fraction of the measured unbounded peak,
/// otherwise absolute bytes with an optional K/M/G binary suffix.
struct BudgetSpec {
  double fraction = -1.0;  ///< >= 0 when the spec was a percentage
  std::size_t bytes = 0;
};

BudgetSpec parse_budget(const std::string& spec) {
  BudgetSpec out;
  if (spec.empty()) return out;
  try {
    std::size_t end = 0;
    const unsigned long long value = std::stoull(spec, &end);
    if (end < spec.size() && spec[end] == '%' && end + 1 == spec.size()) {
      out.fraction = static_cast<double>(value) / 100.0;
      return out;
    }
    std::size_t shift = 0;
    if (end < spec.size()) {
      if (end + 1 != spec.size()) throw std::invalid_argument(spec);
      switch (spec[end]) {
        case 'k': case 'K': shift = 10; break;
        case 'm': case 'M': shift = 20; break;
        case 'g': case 'G': shift = 30; break;
        default: throw std::invalid_argument(spec);
      }
    }
    out.bytes = static_cast<std::size_t>(value) << shift;
    return out;
  } catch (const std::exception&) {
    std::cerr << "bad --budget '" << spec
              << "': expected BYTES[K|M|G] or NN%\n";
    std::exit(1);
  }
}

/// FNV-1a over a response's numeric payload -- the bitwise-equality
/// probe the budgeted pass is compared with.
std::uint64_t hash_response(const bcsf::ServeResponse& response) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  const auto data = response.output.data();
  mix(data.data(), data.size() * sizeof(bcsf::value_t));
  mix(&response.scalar, sizeof(response.scalar));
  return h;
}

std::string tenant_name(int t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03d", t);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bcsf;
  using namespace bcsf::bench;
  const CliParser cli(argc, argv);
  const int requests = static_cast<int>(cli.get_int("requests", 512));
  const int batch_size = static_cast<int>(cli.get_int("batch", 64));
  const offset_t nnz = static_cast<offset_t>(cli.get_int("nnz", 200000));
  const rank_t rank = static_cast<rank_t>(cli.get_int("rank", kPaperRank));
  const double threshold = cli.get_double("threshold", requests / 4.0);
  const std::string upgrade = cli.get_string("format", "bcsf");
  const std::string op_mix = cli.get_string("op-mix", "1:0:0");
  const std::array<int, 3> op_weights = parse_op_mix(op_mix);
  const int update_every = static_cast<int>(cli.get_int("update-every", 0));
  const offset_t update_nnz =
      static_cast<offset_t>(cli.get_int("update-nnz", 2000));
  const std::string shard_spec = cli.get_string("shards", "1");
  const std::string json_path = cli.get_string("json", "");
  const std::string record_path = cli.get_string("record", "");
  const std::string trace_path = cli.get_string("trace", "");
  const int tenants = static_cast<int>(cli.get_int("tenants", 0));
  const double zipf_s = cli.get_double("zipf", 1.1);
  const std::string budget_spec = cli.get_string("budget", "50%");
  if (!record_path.empty() && !trace_path.empty()) {
    std::cerr << "--record and --trace are mutually exclusive\n";
    return 1;
  }
  if (tenants > 0 && (!record_path.empty() || !trace_path.empty())) {
    std::cerr << "--tenants excludes --record/--trace\n";
    return 1;
  }

  const std::vector<unsigned> thread_counts =
      parse_unsigned_list(cli.get_string("threads", "1,2,4,8"));
  const std::vector<unsigned> shard_counts = parse_unsigned_list(shard_spec);

  print_header("Serving throughput -- requests/sec vs worker count",
               "async COO -> " + upgrade + " upgrade at " +
                   std::to_string(static_cast<long>(threshold)) + " calls" +
                   ", op mix mttkrp:ttv:fit = " + op_mix + ", shards = " +
                   shard_spec +
                   (update_every > 0
                        ? ", update every " + std::to_string(update_every) +
                              " requests"
                        : ""));

  PowerLawConfig config;
  config.dims = {400, 600, 800};
  config.target_nnz = nnz;
  config.slice_alpha = 0.8;
  config.fiber_alpha = 0.8;
  config.max_fiber_len = 64;
  config.seed = 97;
  const SparseTensor base = generate_power_law(config);
  const auto factors = std::make_shared<const std::vector<DenseMatrix>>(
      make_random_factors(base.dims(), rank, 4242));
  // TTV requests contract with rank-1 vectors; FIT reuses the factors.
  const auto vectors = std::make_shared<const std::vector<DenseMatrix>>(
      make_random_factors(base.dims(), 1, 2424));
  std::cout << "tensor: " << base.shape_string() << ", nnz = " << base.nnz()
            << ", rank = " << rank << ", requests = " << requests << "\n\n";

  // The recorder captures the FIRST (shards, workers) run only -- one
  // clean replayable workload, not a concatenation of sweeps that would
  // re-register the same tensor.
  std::unique_ptr<trace::TraceRecorder> recorder;
  if (!record_path.empty()) {
    recorder = std::make_unique<trace::TraceRecorder>(record_path);
  }
  bool recording = recorder != nullptr;
  std::uint64_t trace_id = 0;

  std::mt19937 update_rng(4711);
  std::vector<RunRow> rows;

  if (tenants > 0) {
    // ---- multi-tenant fleet mode (DESIGN.md §10) ----
    const BudgetSpec budget = parse_budget(budget_spec);
    // Exact-grid tenant fleet: identical dims (one shared factor set),
    // harmonically decreasing nnz -- tenant 0 is both the biggest and,
    // under Zipf, the hottest, so structured storage concentrates where
    // the traffic is.
    const std::vector<index_t> tdims = {96, 128, 72};
    double hsum = 0.0;
    for (int t = 0; t < tenants; ++t) hsum += 1.0 / (t + 1);
    std::vector<SparseTensor> fleet;
    fleet.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      const auto want = static_cast<offset_t>(std::max(
          256.0, static_cast<double>(nnz) / ((t + 1) * hsum)));
      SparseTensor tensor(tdims);
      std::mt19937 trng(1000 + static_cast<unsigned>(t));
      std::unordered_set<std::uint64_t> seen;
      std::vector<index_t> coords(tdims.size());
      while (tensor.nnz() < want) {
        std::uint64_t key = 0;
        for (std::size_t m = 0; m < tdims.size(); ++m) {
          coords[m] = static_cast<index_t>(trng() % tdims[m]);
          key = key * tdims[m] + coords[m];
        }
        // Exact grid needs unique cells: a structured build may coalesce
        // duplicate coordinates where the COO sweep would sum them.
        if (!seen.insert(key).second) continue;
        tensor.push_back(coords,
                         1.0F + 0.5F * static_cast<value_t>(trng() % 5));
      }
      fleet.push_back(std::move(tensor));
    }
    // Shared exact-grid factors: multiples of 0.25 in [-1, 1].  Every
    // kernel term is then a multiple of 2^-5 with magnitude <= 3, and
    // every partial sum stays far inside float's exactly-representable
    // range -- bitwise equality becomes order-independent, which is what
    // lets the budgeted pass (evictions, COO fallbacks, different
    // thread interleavings) be compared byte for byte.
    std::vector<DenseMatrix> tfactor_vec;
    {
      std::mt19937 frng(77);
      for (std::size_t m = 0; m < tdims.size(); ++m) {
        DenseMatrix f(tdims[m], rank);
        for (value_t& v : f.data()) {
          v = 0.25F * (static_cast<value_t>(static_cast<int>(frng() % 9)) -
                       4.0F);
        }
        tfactor_vec.push_back(std::move(f));
      }
    }
    const auto tfactors = std::make_shared<const std::vector<DenseMatrix>>(
        std::move(tfactor_vec));
    std::cout << "tenants: " << tenants << ", zipf s = " << zipf_s
              << ", budget = " << budget_spec << ", per-tenant dims "
              << fleet[0].shape_string() << ", fleet nnz = " << [&] {
                   offset_t total = 0;
                   for (const auto& f : fleet) total += f.nnz();
                   return total;
                 }() << "\n\n";

    // One measured pass: the identical Zipf request sequence (fixed
    // seed) against a fresh service with the given budget.
    auto run_pass = [&](unsigned shards, unsigned workers,
                        std::size_t budget_bytes,
                        std::vector<std::uint64_t>& hashes) {
      ServeOptions opts;
      opts.workers = workers;
      opts.shards = shards;
      opts.upgrade_format = upgrade;
      opts.upgrade_threshold = threshold;
      opts.storage_budget_bytes = budget_bytes;
      TensorOpService service(opts);
      for (int t = 0; t < tenants; ++t) {
        service.register_tensor(tenant_name(t),
                                share_tensor(SparseTensor(fleet[
                                    static_cast<std::size_t>(t)])));
      }
      RunRow row;
      row.shards = shards;
      row.workers = workers;
      row.tenants = tenants;
      row.budget_bytes = budget_bytes;
      Rng zrng(20260807);
      ZipfSampler zipf(static_cast<index_t>(tenants), zipf_s, zrng);
      std::vector<double> latencies_ms;
      latencies_ms.reserve(static_cast<std::size_t>(requests));
      using clock = std::chrono::steady_clock;
      Timer timer;
      for (int issued = 0; issued < requests;) {
        std::vector<ServeRequest> batch;
        batch.reserve(static_cast<std::size_t>(batch_size));
        for (int i = 0; i < batch_size && issued < requests; ++i, ++issued) {
          ServeRequest request;
          request.tensor = tenant_name(static_cast<int>(zipf.sample()));
          request.mode = static_cast<index_t>(issued % tdims.size());
          request.op = OpKind::kMttkrp;
          request.factors = tfactors;
          batch.push_back(std::move(request));
        }
        const clock::time_point submitted = clock::now();
        auto futures = service.submit_batch(std::move(batch));
        std::vector<std::uint64_t> wave_hashes(futures.size(), 0);
        std::vector<bool> done(futures.size(), false);
        std::size_t remaining = futures.size();
        while (remaining > 0) {
          for (std::size_t i = 0; i < futures.size(); ++i) {
            if (done[i] ||
                futures[i].wait_for(std::chrono::microseconds(50)) !=
                    std::future_status::ready) {
              continue;
            }
            const double latency = std::chrono::duration<double, std::milli>(
                                       clock::now() - submitted)
                                       .count();
            const ServeResponse response = futures[i].get();
            done[i] = true;
            --remaining;
            (response.upgraded ? row.post_upgrade : row.pre_upgrade)++;
            latencies_ms.push_back(latency);
            wave_hashes[i] = hash_response(response);
          }
        }
        // Hashes land in ISSUE order regardless of completion order, so
        // two passes over the same sequence are directly comparable.
        hashes.insert(hashes.end(), wave_hashes.begin(), wave_hashes.end());
        // The budget invariant, sampled at every wave boundary: the
        // service must never hold more resident bytes than the budget.
        if (budget_bytes > 0 && service.resident_bytes() > budget_bytes) {
          row.under_budget = false;
        }
      }
      service.wait_idle();
      if (budget_bytes > 0 && service.resident_bytes() > budget_bytes) {
        row.under_budget = false;
      }
      const double seconds = timer.seconds();
      row.completed = static_cast<int>(latencies_ms.size());
      row.req_per_s = row.completed / seconds;
      row.wall_ms = seconds * 1e3;
      row.p50_ms = percentile(latencies_ms, 50.0);
      row.p99_ms = percentile(latencies_ms, 99.0);
      row.ops[0].count = row.completed;
      row.ops[0].p50_ms = row.p50_ms;
      row.ops[0].p99_ms = row.p99_ms;
      row.resident_peak_bytes = service.peak_plan_resident_bytes();
      row.resident_final_bytes = service.resident_bytes();
      row.evictions = service.eviction_count();
      row.policy_ms = service.policy_seconds() * 1e3;
      row.policy_resolutions = service.policy_resolution_count();
      std::uint64_t structured = 0;
      std::uint64_t coo = 0;
      for (const auto& ts : service.tenant_stats()) {
        structured += ts.structured_served;
        coo += ts.coo_served;
      }
      row.plan_hit_rate =
          structured + coo == 0
              ? 0.0
              : static_cast<double>(structured) /
                    static_cast<double>(structured + coo);
      row.final_format = service.current_format(tenant_name(0), 0);
      row.final_version = service.snapshot_version(tenant_name(0));
      return row;
    };

    Table ttable({"shards", "workers", "budget (KB)", "req/s", "p50 (ms)",
                  "p99 (ms)", "peak res (KB)", "final res (KB)", "hit rate",
                  "evictions", "under", "match"});
    const auto kb = [](std::uint64_t b) {
      return static_cast<long>(b / 1024);
    };
    for (unsigned shards : shard_counts) {
      for (unsigned workers : thread_counts) {
        std::vector<std::uint64_t> unbounded_hashes;
        std::vector<std::uint64_t> budgeted_hashes;
        RunRow unbounded = run_pass(shards, workers, 0, unbounded_hashes);
        const std::size_t budget_bytes =
            budget.fraction >= 0.0
                ? std::max<std::size_t>(
                      1, static_cast<std::size_t>(
                             budget.fraction *
                             static_cast<double>(
                                 unbounded.resident_peak_bytes)))
                : budget.bytes;
        RunRow budgeted =
            run_pass(shards, workers, budget_bytes, budgeted_hashes);
        budgeted.budget_match = budgeted_hashes == unbounded_hashes;
        for (const RunRow* r : {&unbounded, &budgeted}) {
          ttable.row(r->shards, r->workers, kb(r->budget_bytes),
                     static_cast<long>(r->req_per_s), r->p50_ms, r->p99_ms,
                     kb(r->resident_peak_bytes),
                     kb(r->resident_final_bytes), r->plan_hit_rate,
                     static_cast<long>(r->evictions),
                     r->under_budget ? "yes" : "NO",
                     r->budget_match ? "yes" : "NO");
        }
        rows.push_back(unbounded);
        rows.push_back(budgeted);
      }
    }
    ttable.print();
  } else {
  Table table({"shards", "workers", "req/s", "wall (ms)", "p50 (ms)",
               "p99 (ms)", "fanout (ms)", "reduce (ms)", "path",
               "t->struct (ms)", "pre-upgrade", "post-upgrade",
               "final format", "compactions", "policy (ms)"});
  for (unsigned shards : shard_counts) {
    for (unsigned workers : thread_counts) {
      ServeOptions opts;
      opts.workers = workers;
      opts.shards = shards;
      opts.upgrade_format = upgrade;
      opts.upgrade_threshold = threshold;
      TensorOpService service(opts);
      /// Tensor the row's lifecycle stats key on: "bench" for synthetic
      /// runs, the trace's first registered tensor for --trace runs.
      std::string stat_tensor = "bench";
      if (trace_path.empty()) {
        service.register_tensor("bench", share_tensor(SparseTensor(base)));
        if (recording) {
          net::RegisterMsg msg;
          msg.id = ++trace_id;
          msg.name = "bench";
          msg.tensor = base;
          recorder->record(net::MsgType::kRegister,
                           net::encode_register(msg));
        }
      } else {
        stat_tensor.clear();  // learned from the trace's first register
      }

      using clock = std::chrono::steady_clock;
      Timer timer;
      RunRow row;
      row.shards = shards;
      row.workers = workers;
      std::vector<double> latencies_ms;
      latencies_ms.reserve(static_cast<std::size_t>(requests));
      std::vector<double> op_latencies_ms[3];

      // Shared per-response accounting for both workload sources.
      auto account = [&](const ServeResponse& response, double latency) {
        (response.upgraded ? row.post_upgrade : row.pre_upgrade)++;
        latencies_ms.push_back(latency);
        op_latencies_ms[static_cast<int>(response.op)].push_back(latency);
        row.fanout_ms += response.fanout_ms;
        row.reduce_ms += response.reduce_ms;
        if (response.reduce_path == ReducePath::kDisjoint ||
            (response.reduce_path == ReducePath::kMerge &&
             row.reduce_path != ReducePath::kDisjoint)) {
          row.reduce_path = response.reduce_path;
        }
      };

      if (!trace_path.empty()) {
        // Trace-driven run: the recorded workload replayed sequentially
        // (each query drained before the next, like tools/trace_replay
        // but timed) against THIS row's service configuration.
        trace::TraceReader reader(trace_path);
        net::Frame frame;
        while (reader.next(frame)) {
          switch (frame.type) {
            case net::MsgType::kRegister: {
              net::RegisterMsg msg = net::decode_register(frame.payload);
              if (stat_tensor.empty()) stat_tensor = msg.name;
              service.register_tensor(msg.name,
                                      share_tensor(std::move(msg.tensor)));
              break;
            }
            case net::MsgType::kUpdate: {
              net::UpdateMsg msg = net::decode_update(frame.payload);
              service.apply_updates(msg.name, std::move(msg.updates));
              break;
            }
            case net::MsgType::kQuery: {
              net::QueryMsg msg = net::decode_query(frame.payload);
              const clock::time_point submitted = clock::now();
              const ServeResponse response =
                  service.submit(net::to_request(std::move(msg))).get();
              account(response, std::chrono::duration<double, std::milli>(
                                    clock::now() - submitted)
                                    .count());
              if (row.time_to_structured_ms < 0 && !stat_tensor.empty() &&
                  service.upgraded(stat_tensor, 0)) {
                row.time_to_structured_ms = timer.seconds() * 1e3;
              }
              break;
            }
            default:
              break;  // recorded responses / pings / shutdowns
          }
        }
      } else {
      for (int issued = 0; issued < requests;) {
        std::vector<ServeRequest> batch;
        batch.reserve(batch_size);
        for (int i = 0; i < batch_size && issued < requests; ++i, ++issued) {
          if (update_every > 0 && issued > 0 && issued % update_every == 0) {
            SparseTensor updates(base.dims());
            std::vector<index_t> coords(base.dims().size());
            for (offset_t z = 0; z < update_nnz; ++z) {
              for (std::size_t m = 0; m < coords.size(); ++m) {
                coords[m] = static_cast<index_t>(update_rng() % base.dims()[m]);
              }
              updates.push_back(coords, 1.0F);
            }
            if (recording) {
              net::UpdateMsg msg;
              msg.id = ++trace_id;
              msg.name = "bench";
              msg.updates = updates;  // copy: the batch moves away below
              recorder->record(net::MsgType::kUpdate,
                               net::encode_update(msg));
            }
            service.apply_updates("bench", std::move(updates));
          }
          ServeRequest request;
          request.tensor = "bench";
          request.mode = static_cast<index_t>(issued % base.order());
          request.op = op_for_request(issued, op_weights);
          request.factors = request.op == OpKind::kTtv ? vectors : factors;
          if (recording) {
            net::QueryMsg msg;
            msg.id = ++trace_id;
            msg.tensor = "bench";
            msg.mode = request.mode;
            msg.op = request.op;
            msg.factors = *request.factors;
            recorder->record(net::MsgType::kQuery, net::encode_query(msg));
          }
          batch.push_back(std::move(request));
        }
        const clock::time_point submitted = clock::now();
        // Drain by polling ALL outstanding futures instead of get()-ing in
        // submission order: each request's latency is stamped when ITS
        // future becomes ready, so the per-op percentiles measure op cost
        // rather than the request's slot position within the wave.
        auto futures = service.submit_batch(std::move(batch));
        std::vector<bool> done(futures.size(), false);
        std::size_t remaining = futures.size();
        while (remaining > 0) {
          for (std::size_t i = 0; i < futures.size(); ++i) {
            if (done[i] || futures[i].wait_for(std::chrono::microseconds(50)) !=
                               std::future_status::ready) {
              continue;
            }
            const double latency = std::chrono::duration<double, std::milli>(
                                       clock::now() - submitted)
                                       .count();
            const ServeResponse response = futures[i].get();
            done[i] = true;
            --remaining;
            account(response, latency);
          }
        }
        // Time-to-structured: first wave boundary where EVERY shard of
        // mode 0 serves its structured delegate.  With K shards the K
        // builds of nnz/K overlap on the pool, so this lands earlier
        // than one monolithic build -- the §8 headline.
        if (row.time_to_structured_ms < 0 && service.upgraded("bench", 0)) {
          row.time_to_structured_ms = timer.seconds() * 1e3;
        }
      }
      }  // synthetic-vs-trace workload branch
      service.wait_idle();
      if (row.time_to_structured_ms < 0 && !stat_tensor.empty() &&
          service.upgraded(stat_tensor, 0)) {
        row.time_to_structured_ms = timer.seconds() * 1e3;
      }
      const double seconds = timer.seconds();

      row.completed = static_cast<int>(latencies_ms.size());
      const int served = std::max(row.completed, 1);
      row.req_per_s = row.completed / seconds;
      row.wall_ms = seconds * 1e3;
      row.fanout_ms /= served;
      row.reduce_ms /= served;
      row.p50_ms = percentile(latencies_ms, 50.0);
      row.p99_ms = percentile(latencies_ms, 99.0);
      if (!stat_tensor.empty()) {
        row.final_format = service.current_format(stat_tensor, 0);
        row.compactions = service.compaction_count(stat_tensor);
        row.final_version = service.snapshot_version(stat_tensor);
        for (const auto& status : service.shard_status(stat_tensor, 0)) {
          row.shard_timings.push_back(
              ShardTiming{status.build_seconds, status.upgraded});
        }
      }
      // v6 storage accounting -- meaningful even without a budget (the
      // unbounded columns of the single-tenant rows).
      row.resident_peak_bytes = service.peak_plan_resident_bytes();
      row.resident_final_bytes = service.resident_bytes();
      row.evictions = service.eviction_count();
      row.policy_ms = service.policy_seconds() * 1e3;
      row.policy_resolutions = service.policy_resolution_count();
      {
        std::uint64_t structured = 0;
        std::uint64_t coo = 0;
        for (const auto& ts : service.tenant_stats()) {
          structured += ts.structured_served;
          coo += ts.coo_served;
        }
        row.plan_hit_rate =
            structured + coo == 0
                ? 0.0
                : static_cast<double>(structured) /
                      static_cast<double>(structured + coo);
      }
      recording = false;  // --record captures the first run only
      for (int op = 0; op < 3; ++op) {
        row.ops[op].count = static_cast<int>(op_latencies_ms[op].size());
        row.ops[op].p50_ms = percentile(op_latencies_ms[op], 50.0);
        row.ops[op].p99_ms = percentile(op_latencies_ms[op], 99.0);
      }
      table.row(row.shards, row.workers, static_cast<long>(row.req_per_s),
                row.wall_ms, row.p50_ms, row.p99_ms, row.fanout_ms,
                row.reduce_ms, reduce_path_name(row.reduce_path),
                row.time_to_structured_ms,
                row.pre_upgrade, row.post_upgrade, row.final_format,
                static_cast<long>(row.compactions), row.policy_ms);
      rows.push_back(row);
    }
  }
  table.print();

  if (op_weights[1] + op_weights[2] > 0) {
    std::cout << "\nper-op latency (count / p50 ms / p99 ms):\n";
    for (const RunRow& r : rows) {
      std::cout << "  shards=" << r.shards << " workers=" << r.workers;
      for (OpKind op : kAllOps) {
        const OpStats& s = r.ops[static_cast<int>(op)];
        std::cout << "  " << op_name(op) << " " << s.count << " / " << s.p50_ms
                  << " / " << s.p99_ms;
      }
      std::cout << "\n";
    }
  }
  }  // tenant-vs-single-tenant mode branch

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"schema\": \"BENCH_serve/v7\",\n"
        << "  \"bench\": \"serve_throughput\",\n"
        << "  \"config\": {\n"
        << "    \"requests\": " << requests << ",\n"
        << "    \"batch\": " << batch_size << ",\n"
        << "    \"nnz\": " << base.nnz() << ",\n"
        << "    \"rank\": " << rank << ",\n"
        << "    \"upgrade_format\": \"" << upgrade << "\",\n"
        << "    \"upgrade_threshold\": " << threshold << ",\n"
        << "    \"op_mix\": \"" << op_mix << "\",\n"
        << "    \"shards\": \"" << shard_spec << "\",\n"
        << "    \"update_every\": " << update_every << ",\n"
        << "    \"update_nnz\": " << update_nnz << ",\n"
        << "    \"tenants\": " << tenants << ",\n"
        << "    \"zipf\": " << zipf_s << ",\n"
        << "    \"budget\": \"" << (tenants > 0 ? budget_spec : "") << "\",\n"
        << "    \"trace\": \""
        << (!record_path.empty() ? record_path : trace_path) << "\"\n"
        << "  },\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RunRow& r = rows[i];
      out << "    {\"shards\": " << r.shards << ", \"workers\": " << r.workers
          << ", \"req_per_s\": " << r.req_per_s
          << ", \"wall_ms\": " << r.wall_ms << ", \"p50_ms\": " << r.p50_ms
          << ", \"p99_ms\": " << r.p99_ms
          << ", \"fanout_ms\": " << r.fanout_ms
          << ", \"reduce_ms\": " << r.reduce_ms
          << ", \"reduce_path\": \"" << reduce_path_name(r.reduce_path)
          << "\""
          << ", \"time_to_structured_ms\": " << r.time_to_structured_ms
          << ", \"pre_upgrade\": " << r.pre_upgrade
          << ", \"post_upgrade\": " << r.post_upgrade
          << ", \"rejected\": " << r.rejected
          << ", \"tenants\": " << r.tenants
          << ", \"budget_bytes\": " << r.budget_bytes
          << ", \"resident_peak_bytes\": " << r.resident_peak_bytes
          << ", \"resident_final_bytes\": " << r.resident_final_bytes
          << ", \"plan_hit_rate\": " << r.plan_hit_rate
          << ", \"evictions\": " << r.evictions
          << ", \"policy_ms\": " << r.policy_ms
          << ", \"policy_resolutions\": " << r.policy_resolutions
          << ", \"under_budget\": " << (r.under_budget ? "true" : "false")
          << ", \"budget_match\": " << (r.budget_match ? "true" : "false")
          << ", \"final_format\": \"" << r.final_format << "\""
          << ", \"compactions\": " << r.compactions
          << ", \"final_version\": " << r.final_version
          << ", \"shard_builds\": [";
      for (std::size_t s = 0; s < r.shard_timings.size(); ++s) {
        out << (s == 0 ? "" : ", ") << "{\"build_s\": "
            << r.shard_timings[s].build_s << ", \"upgraded\": "
            << (r.shard_timings[s].upgraded ? "true" : "false") << "}";
      }
      out << "], \"ops\": {";
      for (OpKind op : kAllOps) {
        const OpStats& s = r.ops[static_cast<int>(op)];
        out << (op == OpKind::kMttkrp ? "" : ", ") << "\"" << op_name(op)
            << "\": {\"count\": " << s.count << ", \"p50_ms\": " << s.p50_ms
            << ", \"p99_ms\": " << s.p99_ms << "}";
      }
      out << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
