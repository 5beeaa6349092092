// Open-loop serving against the real fedfc_serve binary: the benchmark
// publishes pre-built model versions into a registry, starts the server on
// it, and replays an arrival schedule computed before the run through
// serve::ServeClient connections.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "automl/model_io.h"
#include "core/result.h"
#include "trace.h"

namespace perfbench {

struct ServeSpec {
  size_t small_rows = 16;
  size_t large_rows = 256;
  double large_share = 0.0;     ///< Fraction of requests with large_rows.
  double fixed_rate = 0.0;      ///< Offered req/s for the latency metrics.
  double warmup_seconds = 0.5;  ///< Unmeasured start of the fixed phase.
  double fixed_seconds = 0.0;   ///< Measured length of the fixed phase.
  size_t publishes = 3;         ///< Versions published per fixed phase.
  /// Length of the saturation phase of traced runs
  /// (serve.saturation_rps); its first warmup_seconds are not counted.
  double saturation_seconds = 0.0;
  size_t connections = 4;
  int setup_reps = 3;
};

/// Model versions for one run: [0] is served from the start, the next
/// `publishes` during the fixed-rate phase, and (traced runs) as many again
/// during its traced twin.
using VersionBuilder =
    std::function<fedfc::Result<std::vector<fedfc::automl::ModelArtifact>>()>;

struct ServeOutcome {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;  ///< Median: build versions, publish, start, ping.
  double p50_ms = 0.0;
  double server_rss_mib = 0.0;  ///< fedfc_serve VmHWM.
  size_t sent = 0;
  size_t failed = 0;
  Metrics layers;  ///< Traced runs only.
};

ServeOutcome RunServe(const ServeSpec& spec, const VersionBuilder& build,
                      uint64_t seed, const std::string& serve_bin,
                      const std::string& work_dir, Tracer* tracer);

/// Versions shaped like a federated XGBRegressor aggregate: per-client
/// 10-tree, depth-8 boosted models on seeded lag rows, folded with
/// automl::ModelBlobAccumulator.
fedfc::Result<std::vector<fedfc::automl::ModelArtifact>> BuildXgbVersions(
    uint64_t seed, size_t n_versions);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
