// perfbench: the repository's fixed-work benchmark. One invocation runs one
// workload for one seed and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs (--trace 1) the per-layer
// ones. perfbench/run.py builds this binary and is the command to use; see
// perfbench/README.md for the workloads and every metric.
//
//   perfbench --workload search_wide --seed 1 --trace 0 --root .
//             --serve-bin .bench_build/perfbench/fedfc_serve
//             --state-dir .bench_build/perfbench/state

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "ml/kernels/kernels.h"
#include "search.h"
#include "serve.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  SearchSpec search;
  ServeSpec serve;
  bool xgb_versions;  ///< Serve the XGB aggregate, not the deployed model.
};

size_t Connections() {
  return std::min<size_t>(4, std::max<size_t>(1, std::thread::hardware_concurrency()));
}

/// The two workloads; README.md records why each exists.
std::vector<Workload> Workloads() {
  const size_t conns = Connections();
  ServeSpec serve;  // One traffic mix; the workloads differ in the model.
  serve.small_rows = 16;
  serve.large_rows = 256;
  serve.large_share = 0.05;
  serve.fixed_rate = 500;
  serve.fixed_seconds = 20;
  serve.publishes = 4;
  serve.saturation_seconds = 4;
  serve.connections = conns;

  SearchSpec wide;
  wide.dataset_index = 0;
  wide.tcp_workers = 4;
  wide.evaluations = 100;
  // One fan-out thread: the fits then run in a fixed order. With four,
  // clients queue on their worker's connection in an order the scheduler
  // picks, and search_s spread 15% over five seeds (README.md).
  wide.fanout_threads = 1;
  SearchSpec long_run;
  long_run.dataset_index = 5;
  long_run.evaluations = 300;
  long_run.fanout_threads = conns;
  long_run.engine_seed = 23;  // The portfolio settles on cheap Lasso fits.
  return {{"search_wide", wide, serve, false}, {"search_long", long_run, serve, true}};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint(const std::string& source_id) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << JsonEscape(CpuModel()) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"compiler\": \""
     << JsonEscape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
     << JsonEscape(PERFBENCH_BUILD_TYPE) << "\", \"kernel_backend\": \""
     << fedfc::ml::kernels::ActiveBackend().name << "\", \"source\": \""
     << JsonEscape(source_id) << "\"}";
  return os.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream(path) << text;
}

/// The knowledge base the meta-model trains on: a copy of the repository's
/// committed cache fedfc_kb_96_16_42.csv (96 synthetic + 16 real-like
/// records, seed 42), kept with the benchmark so the search inputs are
/// pinned here and do not hinge on a cache file the repository ignores.
std::string KnowledgeBasePath(const std::string& root) {
  return root + "/perfbench/knowledge_base.csv";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int trace = 0;
  double seconds = 0;
  std::string root = ".";
  std::string serve_bin;
  std::string state_dir;
  std::string source_id = "unknown";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--trace") a->trace = std::stoi(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--root") a->root = v;
    else if (k == "--serve-bin") a->serve_bin = v;
    else if (k == "--state-dir") a->state_dir = v;
    else if (k == "--source-id") a->source_id = v;
    else return false;
  }
  return !a->state_dir.empty() && (a->self_test || !a->serve_bin.empty());
}

/// The in-process == TCP oracle: the search_wide federation searched over
/// loopback workers and in-process must agree bit for bit.
int SelfTest(const Args& args, const Workload& wide) {
  const std::string kb = KnowledgeBasePath(args.root);
  SearchSpec tcp = wide.search;
  tcp.evaluations = 16;
  tcp.reps = 1;
  tcp.data_seed = args.seed;
  tcp.engine_seed = args.seed;
  SearchSpec local = tcp;
  local.tcp_workers = 0;
  SearchOutcome a = RunSearch(tcp, kb, nullptr);
  SearchOutcome b = RunSearch(local, kb, nullptr);
  std::string diff = !a.ok ? "tcp: " + a.error : !b.ok ? "in-process: " + b.error
                                                        : CompareSearches(a, b);
  if (!diff.empty()) {
    std::printf("self-test FAILED (seed %llu): %s\n",
                static_cast<unsigned long long>(args.seed), diff.c_str());
    return 1;
  }
  std::printf("self-test passed (seed %llu): search_wide over TCP == in-process, "
              "test MSE %.17g, %s\n",
              static_cast<unsigned long long>(args.seed), a.test_mse, a.config.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --trace 0|1 --root DIR "
                 "--serve-bin PATH --state-dir DIR [--source-id ID]\n"
                 "       perfbench --self-test --seed N --root DIR --state-dir DIR\n");
    return 2;
  }
  const std::vector<Workload> table = Workloads();
  if (args.self_test) return SelfTest(args, table[0]);
  const Workload* w = nullptr;
  for (const Workload& cand : table) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string kb = KnowledgeBasePath(args.root);
  if (!std::filesystem::exists(kb)) {
    std::fprintf(stderr, "perfbench: knowledge base %s not found\n", kb.c_str());
    return 2;
  }
  const std::string tag = std::string(w->name) + "-s" + std::to_string(args.seed);
  const bool traced = args.trace != 0;
  Tracer tracer(tag + (traced ? "-traced" : ""));
  Tracer* t = traced ? &tracer : nullptr;
  std::vector<std::string> errors;

  SearchSpec search_spec = w->search;
  if (traced) search_spec.reps = 1;  // One untraced repetition to compare with.
  SearchOutcome search = RunSearch(search_spec, kb, t);
  if (!search.ok) errors.push_back(search.error);

  ServeOutcome serve;
  const std::string work_dir =
      args.state_dir + "/work/" + tag + "-" + std::to_string(::getpid());
  if (search.ok) {
    ServeSpec spec = w->serve;
    if (args.seconds > 0) spec.fixed_seconds = args.seconds;
    const size_t n_versions = 1 + spec.publishes * (traced ? 2 : 1);
    VersionBuilder build;
    if (w->xgb_versions) {
      build = [&]() { return BuildXgbVersions(args.seed, n_versions); };
    } else {
      // A redeploy: the search's model, published again as each new version.
      build = [&]() {
        return fedfc::Result<std::vector<fedfc::automl::ModelArtifact>>(
            std::vector<fedfc::automl::ModelArtifact>(n_versions, search.artifact));
      };
    }
    serve = RunServe(spec, build, args.seed, args.serve_bin, work_dir, t);
    if (!serve.ok) errors.push_back("serve: " + serve.error);
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);

  Metrics metrics;
  if (!traced) {
    metrics["setup_s"] = {search.setup_s + serve.setup_s, "s"};
    metrics["search_s"] = {search.search_s, "s"};
    metrics["forecast_p50_ms"] = {serve.p50_ms, "ms"};
    metrics["peak_rss_mib"] = {PeakRssMib() + serve.server_rss_mib, "MiB"};
  } else {
    metrics = search.layers;
    for (const auto& [k, v] : serve.layers) metrics[k] = v;
    // Tracing overhead: the traced repetition against the untraced one(s)
    // of the same run (the serve side reports its own pair).
    metrics["trace.search_s"] = {search.traced_search_s, "s"};
    metrics["trace.overhead.search_s"] = {search.traced_search_s / search.search_s - 1.0,
                                          "ratio"};
    // Self time per layer: span time minus the part its child spans cover.
    std::vector<Span> spans = tracer.Snapshot();
    Tracer::LinkParents(spans);
    const auto self_times = Tracer::SelfTimes(spans);
    for (const char* layer : {"round", "execute", "handle", "consume"}) {
      auto it = self_times.find(layer);
      metrics[std::string("trace.self_s.") + layer] = {
          it == self_times.end() ? 0.0 : it->second.second, "s"};
    }
    const std::string spans_path = args.state_dir + "/results/" + tag + ".spans.jsonl";
    std::filesystem::create_directories(args.state_dir + "/results");
    if (fedfc::Status s = tracer.WriteJsonLines(spans_path); !s.ok()) {
      errors.push_back(s.ToString());
    }
  }

  const size_t attempted = search.client_calls + serve.sent;
  const size_t lost = search.loss_history.size() < w->search.evaluations
                          ? w->search.evaluations - search.loss_history.size()
                          : 0;
  const size_t failed = search.client_failures + lost + serve.failed;
  const std::string fingerprint = Fingerprint(args.source_id);
  std::ostringstream record;
  record << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
         << ", \"trace\": " << args.trace << ", \"fingerprint\": " << fingerprint
         << ", \"config\": \"" << JsonEscape(search.config)
         << "\", \"test_mse\": " << JsonNumber(search.test_mse) << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    record << (i ? ", " : "") << "\"" << JsonEscape(errors[i]) << "\"";
  }
  record << "], \"metrics\": " << MetricsJson(metrics) << "}\n";
  WriteFile(args.state_dir + "/results/" + tag + "-t" + std::to_string(args.trace) + ".json",
            record.str());

  for (const std::string& e : errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              errors.empty() ? "true" : "false", std::max<size_t>(attempted, 1), failed,
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
