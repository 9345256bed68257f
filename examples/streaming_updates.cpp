// Streaming-updates walkthrough (DESIGN.md §6): serve MTTKRP queries
// from a tensor that grows WHILE being served.  Each round interleaves a
// wave of queries with an additive COO update batch; responses keep
// answering instantly (base plan + delta sweep), every response names
// the snapshot version it computed, and once the delta outgrows the
// threshold a background compaction folds it into a new base -- after
// which the upgrade policy re-runs and the structured plan re-lands,
// with no caller ever blocked.
//
//   ./streaming_updates [--nnz=30000] [--rank=16] [--rounds=8]
//                       [--wave-size=6] [--update-nnz=2500]
//                       [--compact-threshold=0.25]
#include <iostream>
#include <memory>
#include <random>
#include <vector>

#include "bcsf/bcsf.hpp"

int main(int argc, char** argv) {
  using namespace bcsf;
  const CliParser cli(argc, argv);
  const offset_t nnz = static_cast<offset_t>(cli.get_int("nnz", 30000));
  const rank_t rank = static_cast<rank_t>(cli.get_int("rank", 16));
  const int rounds = static_cast<int>(cli.get_int("rounds", 8));
  const int wave_size = static_cast<int>(cli.get_int("wave-size", 6));
  const offset_t update_nnz =
      static_cast<offset_t>(cli.get_int("update-nnz", 2500));
  const double compact_threshold =
      cli.get_double("compact-threshold", 0.25);

  PowerLawConfig config;
  config.dims = {150, 250, 350};
  config.target_nnz = nnz;
  config.slice_alpha = 0.8;
  config.fiber_alpha = 0.8;
  config.max_fiber_len = 48;
  config.seed = 13;
  SparseTensor x = generate_power_law(config);
  const std::vector<index_t> dims = x.dims();
  const auto factors = std::make_shared<const std::vector<DenseMatrix>>(
      make_random_factors(dims, rank, 42));

  ServeOptions opts;
  opts.workers = 4;
  opts.initial_format = "coo";
  opts.upgrade_format = "auto";
  opts.upgrade_threshold = 8;
  opts.compact_threshold = compact_threshold;
  opts.compact_min_nnz = 1024;
  TensorOpService service(opts);

  std::cout << "Serving " << x.shape_string() << " (" << x.nnz()
            << " nnz) while it grows: " << rounds << " rounds of "
            << wave_size << " queries + one " << update_nnz
            << "-nnz update batch, compaction at delta fraction "
            << compact_threshold << ".\n\n";
  service.register_tensor("live", share_tensor(std::move(x)));

  std::mt19937 rng(777);
  for (int round = 0; round < rounds; ++round) {
    std::vector<ServeRequest> wave(
        static_cast<std::size_t>(wave_size),
        ServeRequest{"live", 0, factors});
    auto futures = service.submit_batch(std::move(wave));

    SparseTensor updates(dims);
    std::vector<index_t> coords(dims.size());
    for (offset_t z = 0; z < update_nnz; ++z) {
      for (std::size_t m = 0; m < dims.size(); ++m) {
        coords[m] = static_cast<index_t>(rng() % dims[m]);
      }
      updates.push_back(coords, 1.0F);
    }
    const std::uint64_t version =
        service.apply_updates("live", std::move(updates));

    std::string formats;
    std::uint64_t min_version = ~0ULL;
    std::uint64_t max_version = 0;
    offset_t max_delta = 0;
    for (auto& future : futures) {
      ServeResponse r = future.get();
      min_version = std::min(min_version, r.snapshot_version);
      max_version = std::max(max_version, r.snapshot_version);
      max_delta = std::max(max_delta, r.delta_nnz);
      if (formats.find(r.served_format) == std::string::npos) {
        if (!formats.empty()) formats += "+";
        formats += r.served_format;
      }
    }
    std::cout << "round " << round << ": served by " << formats
              << ", snapshot versions " << min_version << ".." << max_version
              << " (now " << version << "), delta swept up to " << max_delta
              << " nnz, delta fraction "
              << service.delta_fraction("live") << ", compactions "
              << service.compaction_count("live") << "\n";
  }

  service.wait_idle();
  const TensorSnapshot snap = service.snapshot("live");
  std::cout << "\nFinal state: version " << snap.version << ", base "
            << snap.base->nnz() << " nnz (base version " << snap.base_version
            << ") + " << snap.deltas.size() << " delta chunks ("
            << snap.delta_nnz << " nnz), compactions "
            << service.compaction_count("live") << ", mode-0 format "
            << service.current_format("live", 0) << ".\n";

  // Spot-check the final snapshot against the sequential reference.
  const SparseTensor merged = snap.merged(/*coalesce=*/true);
  const DenseMatrix truth = mttkrp_reference(merged, 0, *factors);
  const ServeResponse last = service.submit({"live", 0, factors}).get();
  std::cout << "max |err| of a fresh query vs reference on the merged "
            << "tensor: " << truth.max_abs_diff(last.output) << "\n";
  return 0;
}
