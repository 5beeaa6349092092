#ifndef FEDFC_BENCH_BENCH_UTIL_H_
#define FEDFC_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "automl/knowledge_base.h"
#include "automl/meta_model.h"
#include "automl/nbeats_baseline.h"
#include "core/logging.h"
#include "data/benchmark_suite.h"
#include "fl/transport.h"
#include "ml/tree/random_forest.h"

namespace fedfc::bench {

/// Environment-variable knobs shared by all table benches. Defaults are
/// sized so the full `for b in build/bench/*; do $b; done` loop finishes in
/// minutes on one core; set FEDFC_BUDGET_MS=300000 and FEDFC_SCALE=1 to run
/// the paper's full 5-minute protocol at published dataset lengths.
///
/// Malformed values abort naming the variable: a typo'd `FEDFC_BUDGET_MS=3OO`
/// silently becoming 3 (atof semantics) would corrupt a benchmark run and the
/// committed BENCH_*.json trajectory downstream of it.
inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  double parsed = std::strtod(v, &end);
  FEDFC_CHECK(end != v && *end == '\0' && errno != ERANGE)
      << name << "='" << v << "' is not a finite number";
  return parsed;
}

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  long parsed = std::strtol(v, &end, 10);
  FEDFC_CHECK(end != v && *end == '\0' && errno != ERANGE &&
              parsed >= std::numeric_limits<int>::min() &&
              parsed <= std::numeric_limits<int>::max())
      << name << "='" << v << "' is not an int";
  return static_cast<int>(parsed);
}

/// Short commit id stamped into BENCH_*.json: FEDFC_GIT_SHA when set (CI
/// passes it so containers without .git still produce attributable records),
/// else `git rev-parse`, else "unknown".
inline std::string BenchGitSha() {
  if (const char* env = std::getenv("FEDFC_GIT_SHA"); env != nullptr && *env != '\0') {
    return env;
  }
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

/// Machine-readable perf record: one BENCH_<name>.json per bench binary,
/// committed at the repo root as the perf trajectory baseline. Schema
/// (version 1) is documented in docs/PERFORMANCE.md and consumed by
/// scripts/bench_compare.py.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Records one configuration key (env knob, shape, backend, ...). Config
  /// entries are informational: bench_compare.py reports but does not gate
  /// on them.
  void AddConfig(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void AddConfig(const std::string& key, double value) {
    AddConfig(key, FormatDouble(value));
  }
  void AddConfig(const std::string& key, int value) {
    AddConfig(key, std::to_string(value));
  }

  /// Records one gated metric. `higher_is_better` gives bench_compare.py the
  /// regression direction (true for throughput, false for wall time).
  void AddMetric(const std::string& name, double value, const std::string& unit,
                 bool higher_is_better) {
    metrics_.push_back({name, value, unit, higher_is_better});
  }

  /// Writes the record to `target` (the bench's `--json-out PATH`). An empty
  /// target writes nothing, so running a bench from the repo root never
  /// overwrites the committed BENCH_<name>.json baseline.
  Status WriteJson(const std::string& target) const {
    if (target.empty()) {
      std::fprintf(stderr, "[bench] no --json-out PATH given; record not written\n");
      return Status::OK();
    }
    FILE* f = std::fopen(target.c_str(), "w");
    if (f == nullptr) {
      return Status::Internal("BenchReporter: cannot open " + target);
    }
    std::fprintf(f, "{\n  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", JsonEscape(bench_name_).c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", JsonEscape(BenchGitSha()).c_str());
    std::fprintf(f, "  \"config\": {");
    for (size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": \"%s\"", i == 0 ? "" : ",",
                   JsonEscape(config_[i].first).c_str(),
                   JsonEscape(config_[i].second).c_str());
    }
    std::fprintf(f, "%s},\n", config_.empty() ? "" : "\n  ");
    std::fprintf(f, "  \"metrics\": [");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"value\": %s, \"unit\": "
                   "\"%s\", \"higher_is_better\": %s}",
                   i == 0 ? "" : ",", JsonEscape(m.name).c_str(),
                   FormatDouble(m.value).c_str(), JsonEscape(m.unit).c_str(),
                   m.higher_is_better ? "true" : "false");
    }
    std::fprintf(f, "%s]\n}\n", metrics_.empty() ? "" : "\n  ");
    if (std::fclose(f) != 0) {
      return Status::Internal("BenchReporter: write failed for " + target);
    }
    std::fprintf(stderr, "[bench] wrote %s (%zu metrics)\n", target.c_str(),
                 metrics_.size());
    return Status::OK();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool higher_is_better;
  };

  static std::string FormatDouble(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
  }

  static std::string JsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Metric> metrics_;
};

struct BenchConfig {
  double budget_seconds = EnvDouble("FEDFC_BUDGET_MS", 1200) / 1000.0;
  double length_scale = EnvDouble("FEDFC_SCALE", 8.0);
  int n_seeds = EnvInt("FEDFC_SEEDS", 3);
  int kb_synthetic = EnvInt("FEDFC_KB_SYNTHETIC", 96);
  int kb_real = EnvInt("FEDFC_KB_REAL", 16);
  /// Cap on federated evaluations per search method. The paper's 5-minute
  /// budget on its Python/Flower stack admits only a few dozen federated
  /// fit/evaluate rounds; our scaled C++ substrate would otherwise run
  /// hundreds, letting random search saturate the small Table 2 spaces and
  /// erasing the regime the paper evaluates. 0 disables the cap.
  int max_search_iterations = EnvInt("FEDFC_MAX_ITERS", 24);
};

/// Builds ForecastClient-backed FL servers for a federated dataset.
inline std::unique_ptr<fl::Server> MakeForecastServer(
    const data::FederatedDataset& dataset, uint64_t seed) {
  std::vector<std::shared_ptr<fl::Client>> clients;
  std::vector<size_t> sizes;
  for (size_t j = 0; j < dataset.clients.size(); ++j) {
    automl::ForecastClient::Options opt;
    opt.seed = seed * 7919 + j;
    sizes.push_back(dataset.clients[j].size());
    clients.push_back(std::make_shared<automl::ForecastClient>(
        dataset.name + "/" + std::to_string(j), dataset.clients[j], opt));
  }
  return std::make_unique<fl::Server>(
      std::make_unique<fl::InProcessTransport>(clients), sizes);
}

/// Loads the meta-model knowledge base from the local cache, or builds and
/// caches it (the offline phase of Figure 2).
inline automl::KnowledgeBase LoadOrBuildKnowledgeBase(const BenchConfig& cfg,
                                                      uint64_t seed = 42) {
  std::string cache = "fedfc_kb_" + std::to_string(cfg.kb_synthetic) + "_" +
                      std::to_string(cfg.kb_real) + "_" + std::to_string(seed) +
                      ".csv";
  Result<automl::KnowledgeBase> cached = automl::KnowledgeBase::LoadCsv(cache);
  if (cached.ok() && cached->size() > 0) {
    std::fprintf(stderr, "[bench] loaded knowledge base cache %s (%zu records)\n",
                 cache.c_str(), cached->size());
    return std::move(*cached);
  }
  std::fprintf(stderr,
               "[bench] building knowledge base (%d synthetic + %d real-like "
               "datasets; cached to %s)...\n",
               cfg.kb_synthetic, cfg.kb_real, cache.c_str());
  automl::KnowledgeBaseOptions opt;
  opt.n_synthetic = static_cast<size_t>(cfg.kb_synthetic);
  opt.n_real_like = static_cast<size_t>(cfg.kb_real);
  opt.grid_per_dim = 2;
  opt.series_length = 900;
  opt.seed = seed;
  Result<automl::KnowledgeBase> kb = automl::BuildKnowledgeBase(opt);
  FEDFC_CHECK(kb.ok()) << kb.status();
  Status save = kb->SaveCsv(cache);
  if (!save.ok()) {
    std::fprintf(stderr, "[bench] warning: could not cache kb: %s\n",
                 save.ToString().c_str());
  }
  return std::move(*kb);
}

/// Trains the deployed meta-model (Random Forest, the Table 4 winner).
inline automl::MetaModel TrainMetaModel(const automl::KnowledgeBase& kb,
                                        uint64_t seed = 17) {
  ml::ForestConfig cfg;
  cfg.n_trees = 120;
  cfg.tree.max_depth = 10;
  cfg.tree.max_features_fraction = 0.5;
  automl::MetaModel model(std::make_unique<ml::RandomForestClassifier>(cfg));
  Rng rng(seed);
  Status status = model.Train(kb, &rng);
  FEDFC_CHECK(status.ok()) << status;
  return model;
}

/// One method run on one dataset: federated test MSE (+ chosen model name
/// for the Table 3 "Best Model" column).
struct MethodOutcome {
  double test_mse = -1.0;  ///< -1 = failed / not applicable.
  std::string best_model;
};

inline MethodOutcome RunFedForecaster(const data::FederatedDataset& dataset,
                                      const automl::MetaModel& meta,
                                      double budget_seconds, uint64_t seed,
                                      size_t max_iterations = 0) {
  auto server = MakeForecastServer(dataset, seed);
  automl::EngineOptions opt;
  opt.time_budget_seconds = budget_seconds;
  opt.max_iterations = max_iterations;
  opt.seed = seed;
  automl::FedForecasterEngine engine(&meta, opt);
  Result<automl::EngineReport> report = engine.Run(server.get());
  if (!report.ok()) {
    std::fprintf(stderr, "[bench] FedForecaster failed on %s: %s\n",
                 dataset.name.c_str(), report.status().ToString().c_str());
    return {};
  }
  return {report->test_loss, automl::AlgorithmName(report->best_config.algorithm)};
}

inline MethodOutcome RunRandomSearch(const data::FederatedDataset& dataset,
                                     double budget_seconds, uint64_t seed,
                                     size_t max_iterations = 0) {
  auto server = MakeForecastServer(dataset, seed);
  automl::EngineOptions opt;
  opt.strategy = automl::SearchStrategy::kRandom;
  opt.use_meta_model = false;
  opt.time_budget_seconds = budget_seconds;
  opt.max_iterations = max_iterations;
  opt.seed = seed;
  automl::FedForecasterEngine engine(nullptr, opt);
  Result<automl::EngineReport> report = engine.Run(server.get());
  if (!report.ok()) {
    std::fprintf(stderr, "[bench] RandomSearch failed on %s: %s\n",
                 dataset.name.c_str(), report.status().ToString().c_str());
    return {};
  }
  return {report->test_loss, automl::AlgorithmName(report->best_config.algorithm)};
}

/// Paper Section 5.1 N-BEATS hyperparameters, scaled for the bench budget:
/// 512 seasonal / 64 trend neurons, 2 blocks per stack, lr 5e-4, batch 256.
inline ml::NBeatsConfig BenchNBeatsConfig() {
  ml::NBeatsConfig cfg;
  cfg.n_generic_blocks = 2;
  cfg.n_trend_blocks = 2;
  cfg.n_seasonal_blocks = 2;
  cfg.trend_width = 64;
  cfg.seasonal_width = static_cast<size_t>(EnvInt("FEDFC_NBEATS_WIDTH", 128));
  cfg.generic_width = 64;
  cfg.n_trunk_layers = 2;
  cfg.learning_rate = 5e-4;
  cfg.batch_size = 256;
  cfg.epochs = 200;  // Budget-bounded in practice.
  return cfg;
}

inline MethodOutcome RunFedNBeats(const data::FederatedDataset& dataset,
                                  double budget_seconds, uint64_t seed) {
  automl::FedNBeatsBaseline::Options opt;
  opt.nbeats = BenchNBeatsConfig();
  opt.lookback = 16;
  opt.epochs_per_round = 1;
  opt.time_budget_seconds = budget_seconds;
  opt.seed = seed;
  automl::FedNBeatsBaseline baseline(opt);
  Result<automl::NBeatsReport> report = baseline.Run(dataset.clients);
  if (!report.ok()) {
    std::fprintf(stderr, "[bench] FedNBeats failed on %s: %s\n",
                 dataset.name.c_str(), report.status().ToString().c_str());
    return {};
  }
  return {report->test_loss, "NBeats"};
}

inline MethodOutcome RunConsolidatedNBeats(const data::FederatedDataset& dataset,
                                           double budget_seconds, uint64_t seed) {
  if (dataset.naturally_federated || dataset.consolidated.empty()) {
    return {};  // Paper: "-" for the ETF datasets.
  }
  Result<automl::NBeatsReport> report = automl::TrainConsolidatedNBeats(
      dataset.consolidated, BenchNBeatsConfig(), /*lookback=*/16, budget_seconds,
      /*test_fraction=*/0.2, seed);
  if (!report.ok()) {
    std::fprintf(stderr, "[bench] NBeats Cons. failed on %s: %s\n",
                 dataset.name.c_str(), report.status().ToString().c_str());
    return {};
  }
  return {report->test_loss, "NBeatsCons"};
}

}  // namespace fedfc::bench

#endif  // FEDFC_BENCH_BENCH_UTIL_H_
