// Fixed-work FedForecaster searches: the federation is built from the
// workload seed, the engine runs until its evaluation cap binds, and a
// traced run wraps every public layer boundary (fl::Transport, fl::Client,
// fl::ReplyConsumer and fl::Server::RunRound) in spans.
#ifndef PERFBENCH_SEARCH_H_
#define PERFBENCH_SEARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automl/model_io.h"
#include "trace.h"

namespace perfbench {

struct SearchSpec {
  size_t dataset_index = 0;  ///< data::BuildBenchmarkDataset index.
  /// 0 = in-process (fl::InProcessTransport); otherwise this many loopback
  /// net::WorkerServers, reached through one net::TcpTransport, each
  /// hosting an equal block of clients.
  size_t tcp_workers = 0;
  size_t evaluations = 0;  ///< Fixed evaluation count (the binding cap).
  size_t fanout_threads = 4;
  /// Dataset and engine (BO, client) seeds. Pinned per workload, not taken
  /// from the run seed: the search's cost is chaotic in its inputs
  /// (README.md, "Why the search inputs are pinned").
  uint64_t data_seed = 7;
  uint64_t engine_seed = 7;
  /// Untraced build + search repetitions; medians are reported and every
  /// repetition must reproduce the first bit for bit.
  int reps = 3;
};

struct SearchOutcome {
  bool ok = false;
  std::string error;      ///< First failed check, when !ok.
  double setup_s = 0.0;   ///< Median set-up time.
  double search_s = 0.0;  ///< Wall time of FedForecasterEngine::Run.
  double traced_search_s = 0.0;  ///< The traced repetition's search_s.
  double test_mse = 0.0;
  std::vector<double> loss_history;
  std::string config;  ///< Chosen configuration, printable.
  fedfc::automl::ModelArtifact artifact;  ///< The deployed global model.
  size_t client_calls = 0;
  size_t client_failures = 0;  ///< Transport failures + timeouts.
  Metrics layers;              ///< Per-layer metrics (traced runs only).
};

/// `spec.reps` times: builds the federation (dataset, knowledge base,
/// meta-model, clients, workers ready) and runs the engine on it. With a
/// `tracer`, one more traced repetition supplies the per-layer metrics.
SearchOutcome RunSearch(const SearchSpec& spec, const std::string& kb_path,
                        Tracer* tracer);

/// Bit-for-bit comparison of two finished searches (test MSE, chosen
/// configuration, loss history, global model); empty when equal.
std::string CompareSearches(const SearchOutcome& a, const SearchOutcome& b);

}  // namespace perfbench

#endif  // PERFBENCH_SEARCH_H_
