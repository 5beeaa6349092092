#include "search.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "automl/engine.h"
#include "automl/fed_client.h"
#include "automl/knowledge_base.h"
#include "automl/meta_model.h"
#include "core/rng.h"
#include "data/benchmark_suite.h"
#include "fl/server.h"
#include "fl/task_codec.h"
#include "fl/transport.h"
#include "ml/tree/random_forest.h"
#include "net/tcp_transport.h"
#include "net/worker.h"

namespace perfbench {
namespace {

using fedfc::Result;
using fedfc::Status;
namespace automl = fedfc::automl;
namespace fl = fedfc::fl;
namespace net = fedfc::net;

/// What the traced wrappers share: the span store and the number of the
/// round in flight (rounds run one at a time; client spans on worker
/// threads pick it up to link to their round).
struct TraceContext {
  Tracer* tracer = nullptr;
  std::atomic<int64_t> round{-1};
};

class TracedClient : public fl::Client {
 public:
  TracedClient(std::shared_ptr<fl::Client> inner, int64_t index, int64_t worker,
               TraceContext* ctx)
      : inner_(std::move(inner)), index_(index), worker_(worker), ctx_(ctx) {}

  std::string id() const override { return inner_->id(); }
  size_t num_examples() const override { return inner_->num_examples(); }

  Result<fl::Payload> Handle(const std::string& task,
                             const fl::Payload& request) override {
    Span span;
    span.name = "handle";
    span.round = ctx_->round.load(std::memory_order_relaxed);
    span.client = index_;
    span.worker = worker_;
    span.start = Now();
    Result<fl::Payload> reply = inner_->Handle(task, request);
    span.end = Now();
    span.ok = reply.ok();
    span.detail = task;
    if (task == fl::tasks::kFitEvaluate) {
      // The algorithm, decoded with the public codec outside the span.
      Result<fl::FitEvaluateRequest> req = fl::FitEvaluateRequest::FromPayload(request);
      if (req.ok()) {
        Result<automl::Configuration> config =
            automl::Configuration::FromTensor(req->config);
        if (config.ok()) {
          span.detail += std::string("/") + automl::AlgorithmName(config->algorithm);
        }
      }
    }
    ctx_->tracer->Record(std::move(span));
    return reply;
  }

 private:
  std::shared_ptr<fl::Client> inner_;
  int64_t index_;
  int64_t worker_;
  TraceContext* ctx_;
};

class TracedTransport : public fl::Transport {
 public:
  TracedTransport(std::unique_ptr<fl::Transport> inner, TraceContext* ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  size_t num_clients() const override { return inner_->num_clients(); }
  fl::TransportStats stats() const override { return inner_->stats(); }

  Result<fl::Payload> Execute(size_t client_index, const std::string& task,
                              const fl::Payload& request) override {
    Span span;
    span.name = "execute";
    span.detail = task;
    span.round = ctx_->round.load(std::memory_order_relaxed);
    span.client = static_cast<int64_t>(client_index);
    span.start = Now();
    Result<fl::Payload> reply = inner_->Execute(client_index, task, request);
    span.end = Now();
    span.ok = reply.ok();
    ctx_->tracer->Record(std::move(span));
    return reply;
  }

 private:
  std::unique_ptr<fl::Transport> inner_;
  TraceContext* ctx_;
};

class TracedConsumer : public fl::ReplyConsumer {
 public:
  TracedConsumer(fl::ReplyConsumer& inner, TraceContext* ctx)
      : inner_(inner), ctx_(ctx) {}

  Status Consume(fl::ClientReply&& reply) override {
    Span span;
    span.name = "consume";
    span.round = ctx_->round.load(std::memory_order_relaxed);
    span.client = static_cast<int64_t>(reply.client_index);
    span.start = Now();
    Status status = inner_.Consume(std::move(reply));
    span.end = Now();
    span.ok = status.ok();
    ctx_->tracer->Record(std::move(span));
    return status;
  }
  Status Finish() override { return inner_.Finish(); }

 private:
  fl::ReplyConsumer& inner_;
  TraceContext* ctx_;
};

class TracedServer : public fl::Server {
 public:
  TracedServer(std::unique_ptr<fl::Transport> transport,
               std::vector<size_t> client_sizes, TraceContext* ctx)
      : fl::Server(std::move(transport), std::move(client_sizes)), ctx_(ctx) {}

  using fl::Server::RunRound;

  Result<fl::RoundSummary> RunRound(const fl::RoundSpec& spec,
                                    fl::ReplyConsumer& consumer) override {
    Span span;
    span.name = "round";
    span.detail = spec.task;
    span.round = ++rounds_;
    ctx_->round.store(span.round, std::memory_order_relaxed);
    TracedConsumer traced(consumer, ctx_);
    span.start = Now();
    Result<fl::RoundSummary> summary = fl::Server::RunRound(spec, traced);
    span.end = Now();
    span.ok = summary.ok();
    ctx_->tracer->Record(std::move(span));
    return summary;
  }

 private:
  TraceContext* ctx_;
  int64_t rounds_ = -1;
};

/// One built federation. Destruction closes the transport first, then stops
/// and joins the worker threads.
struct Federation {
  Federation() = default;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;
  ~Federation() {
    server.reset();
    for (auto& w : workers) w->RequestStop();
    for (auto& t : worker_threads) t.join();
  }

  TraceContext trace;
  std::unique_ptr<automl::MetaModel> meta;
  std::vector<std::shared_ptr<fl::Client>> clients;
  std::vector<std::unique_ptr<net::WorkerServer>> workers;
  std::vector<std::thread> worker_threads;
  std::unique_ptr<fl::Server> server;
};

Result<std::unique_ptr<Federation>> BuildFederation(const SearchSpec& spec,
                                                    const std::string& kb_path,
                                                    Tracer* tracer) {
  auto fed = std::make_unique<Federation>();
  fed->trace.tracer = tracer;

  fedfc::data::BenchmarkSuiteOptions suite;
  suite.seed = spec.data_seed;
  FEDFC_ASSIGN_OR_RETURN(fedfc::data::FederatedDataset dataset,
                         fedfc::data::BuildBenchmarkDataset(spec.dataset_index, suite));

  FEDFC_ASSIGN_OR_RETURN(automl::KnowledgeBase kb, automl::KnowledgeBase::LoadCsv(kb_path));
  if (kb.size() == 0) return Status::FailedPrecondition("empty knowledge base " + kb_path);
  // The deployed meta-model: the Table 4 winner, as the repository's
  // benches train it.
  fedfc::ml::ForestConfig forest;
  forest.n_trees = 120;
  forest.tree.max_depth = 10;
  forest.tree.max_features_fraction = 0.5;
  fed->meta = std::make_unique<automl::MetaModel>(
      std::make_unique<fedfc::ml::RandomForestClassifier>(forest));
  fedfc::Rng meta_rng(17);
  FEDFC_RETURN_IF_ERROR(fed->meta->Train(kb, &meta_rng));

  const size_t n = dataset.clients.size();
  const size_t workers = spec.tcp_workers;
  if (workers > 0 && n % workers != 0) {
    return Status::InvalidArgument("clients do not split evenly over workers");
  }
  std::vector<size_t> sizes;
  for (size_t j = 0; j < n; ++j) {
    automl::ForecastClient::Options opt;
    opt.seed = spec.engine_seed * 7919 + j;
    std::shared_ptr<fl::Client> client = std::make_shared<automl::ForecastClient>(
        dataset.name + "/" + std::to_string(j), dataset.clients[j], opt);
    if (tracer != nullptr) {
      const int64_t worker = workers > 0 ? static_cast<int64_t>(j / (n / workers)) : -1;
      client = std::make_shared<TracedClient>(std::move(client), static_cast<int64_t>(j),
                                              worker, &fed->trace);
    }
    sizes.push_back(client->num_examples());
    fed->clients.push_back(std::move(client));
  }

  std::unique_ptr<fl::Transport> transport;
  if (workers == 0) {
    transport = std::make_unique<fl::InProcessTransport>(fed->clients);
  } else {
    std::vector<net::WorkerEndpoint> endpoints;
    const size_t per_worker = n / workers;
    net::WorkerOptions wopt;
    wopt.poll_interval_ms = 20;  // Prompt teardown between set-up repetitions.
    for (size_t w = 0; w < workers; ++w) {
      FEDFC_ASSIGN_OR_RETURN(net::Listener listener,
                             net::Listener::ListenTcp("127.0.0.1", 0));
      std::vector<fl::Client*> hosted;
      for (size_t k = 0; k < per_worker; ++k) {
        hosted.push_back(fed->clients[w * per_worker + k].get());
      }
      auto server = std::make_unique<net::WorkerServer>(std::move(listener),
                                                        std::move(hosted), wopt);
      endpoints.push_back({"127.0.0.1", server->port(), per_worker});
      fed->workers.push_back(std::move(server));
    }
    for (auto& w : fed->workers) {
      net::WorkerServer* worker = w.get();
      fed->worker_threads.emplace_back([worker]() { (void)worker->Serve(); });
    }
    auto tcp = std::make_unique<net::TcpTransport>(std::move(endpoints));
    // Workers are ready once every hosted client has answered over the wire.
    FEDFC_ASSIGN_OR_RETURN(std::vector<size_t> remote_sizes, tcp->QueryNumExamples());
    if (remote_sizes != sizes) {
      return Status::Internal("workers report other client sizes than in-process");
    }
    transport = std::move(tcp);
  }
  if (tracer != nullptr) {
    transport = std::make_unique<TracedTransport>(std::move(transport), &fed->trace);
    fed->server = std::make_unique<TracedServer>(std::move(transport), sizes, &fed->trace);
  } else {
    fed->server = std::make_unique<fl::Server>(std::move(transport), sizes);
  }
  return fed;
}

double Ms(double seconds) { return seconds * 1e3; }

/// Per-layer metrics of one traced search (see README.md for definitions).
Metrics SearchLayers(const std::vector<Span>& spans, const fl::TransportStats& stats,
                     double search_s, size_t evaluations, size_t fanout,
                     size_t workers) {
  std::vector<const Span*> rounds;
  std::map<std::pair<int64_t, int64_t>, const Span*> handle_of;
  std::vector<double> consume_us;
  size_t client_calls = 0;
  size_t client_failures = 0;
  std::map<std::pair<int64_t, int64_t>, size_t> attempts;
  for (const Span& s : spans) {
    if (s.name == "round") rounds.push_back(&s);
    if (s.name == "handle") handle_of[{s.round, s.client}] = &s;
    if (s.name == "consume") consume_us.push_back(s.seconds() * 1e6);
    if (s.name == "execute") {
      ++client_calls;
      if (!s.ok) ++client_failures;
      ++attempts[{s.round, s.client}];
    }
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const Span* a, const Span* b) { return a->round < b->round; });

  Metrics m;
  auto put = [&m](const std::string& name, double value, const std::string& unit) {
    m[name] = {value, unit};
  };

  // automl phases and the bayesopt gaps between fit_evaluate rounds.
  double meta_s = 0, feature_s = 0, final_s = 0, round_total = 0;
  double first_fe = -1, last_fe = -1;
  std::vector<double> round_ms, gaps_ms;
  const Span* prev_fe = nullptr;
  for (const Span* r : rounds) {
    round_total += r->seconds();
    if (r->detail == fl::tasks::kMetaFeatures) meta_s += r->seconds();
    if (r->detail == fl::tasks::kFeatureImportance) feature_s += r->seconds();
    if (r->detail == fl::tasks::kFitFinal || r->detail == fl::tasks::kEvaluateModel) {
      final_s += r->seconds();
    }
    if (r->detail == fl::tasks::kFitEvaluate) {
      if (first_fe < 0) first_fe = r->start;
      last_fe = r->end;
      round_ms.push_back(Ms(r->seconds()));
      if (prev_fe != nullptr) gaps_ms.push_back(Ms(r->start - prev_fe->end));
      prev_fe = r;
    }
  }
  put("automl.meta_s", meta_s, "s");
  put("automl.feature_s", feature_s, "s");
  put("automl.optimize_s", first_fe >= 0 ? last_fe - first_fe : 0.0, "s");
  put("automl.final_s", final_s, "s");
  put("bayesopt.propose_ms.p50", Quantile(gaps_ms, 0.5), "ms");
  put("bayesopt.propose_ms.p99", Quantile(gaps_ms, 0.99), "ms");
  put("bayesopt.share", Sum(gaps_ms) / 1e3 / search_s, "ratio");
  put("fl.round_ms.p50", Quantile(round_ms, 0.5), "ms");
  put("fl.round_ms.p99", Quantile(round_ms, 0.99), "ms");
  // Round spans plus the gaps between all consecutive rounds, against the
  // engine's wall time: what the trace leaves unexplained.
  double all_gaps = 0;
  for (size_t i = 1; i < rounds.size(); ++i) {
    all_gaps += rounds[i]->start - rounds[i - 1]->end;
  }
  put("trace.unaccounted_share", 1.0 - (round_total + all_gaps) / search_s, "ratio");

  // fl fan-out, stragglers, transport overhead; ml and features handles.
  double handle_total = 0;
  std::map<int64_t, std::vector<double>> handles_by_round;
  std::vector<double> worker_busy(workers, 0.0);
  std::vector<double> fit_ms, importance_ms, meta_ms;
  const char* kAlgos[] = {"Lasso",        "LinearSVR",      "ElasticNetCV",
                          "XGBRegressor", "HuberRegressor", "QuantileRegressor"};
  std::map<std::string, std::pair<double, size_t>> per_algo;
  for (const char* a : kAlgos) per_algo[a] = {0.0, 0};
  const std::string fe_prefix = std::string(fl::tasks::kFitEvaluate) + "/";
  for (const auto& [key, h] : handle_of) {
    (void)key;
    handle_total += h->seconds();
    if (h->worker >= 0 && static_cast<size_t>(h->worker) < workers) {
      worker_busy[static_cast<size_t>(h->worker)] += h->seconds();
    }
    if (h->detail.rfind(fe_prefix, 0) == 0) {
      fit_ms.push_back(Ms(h->seconds()));
      handles_by_round[h->round].push_back(h->seconds());
      auto& slot = per_algo[h->detail.substr(fe_prefix.size())];
      slot.first += h->seconds();
      slot.second += 1;
    } else if (h->detail == fl::tasks::kFeatureImportance) {
      importance_ms.push_back(Ms(h->seconds()));
    } else if (h->detail == fl::tasks::kMetaFeatures) {
      meta_ms.push_back(Ms(h->seconds()));
    }
  }
  std::vector<double> overhead_ms;
  for (const Span& s : spans) {
    if (s.name != "execute") continue;
    auto it = handle_of.find({s.round, s.client});
    if (it != handle_of.end()) overhead_ms.push_back(Ms(s.seconds() - it->second->seconds()));
  }
  std::vector<double> straggler;
  for (auto& [round, hs] : handles_by_round) {
    (void)round;
    const double med = Median(hs);
    if (med > 0) straggler.push_back(*std::max_element(hs.begin(), hs.end()) / med);
  }
  put("fl.fanout_busy_share",
      round_total > 0 ? handle_total / (round_total * static_cast<double>(fanout)) : 0.0,
      "ratio");
  put("fl.straggler_ratio.p50", Median(straggler), "ratio");
  put("fl.transport_overhead_ms.p50", Quantile(overhead_ms, 0.5), "ms");
  put("fl.transport_overhead_ms.p99", Quantile(overhead_ms, 0.99), "ms");
  put("fl.consume_us.p50", Median(consume_us), "us");
  const auto evals = static_cast<double>(evaluations);
  put("fl.messages_per_eval", static_cast<double>(stats.messages) / evals, "count");
  put("fl.bytes_per_eval",
      static_cast<double>(stats.bytes_to_clients + stats.bytes_to_server) / evals, "B");
  put("fl.client_calls", static_cast<double>(client_calls), "count");
  put("fl.client_failures", static_cast<double>(client_failures), "count");
  size_t retries = 0;
  for (const auto& [key, n] : attempts) {
    (void)key;
    retries += n - 1;
  }
  put("fl.retries", static_cast<double>(retries), "count");
  double busy_min = 0, busy_max = 0;
  if (workers > 0) {
    busy_min = *std::min_element(worker_busy.begin(), worker_busy.end()) / search_s;
    busy_max = *std::max_element(worker_busy.begin(), worker_busy.end()) / search_s;
  }
  put("net.worker_busy_share.min", busy_min, "ratio");
  put("net.worker_busy_share.max", busy_max, "ratio");
  put("ml.fit_ms.p50", Quantile(fit_ms, 0.5), "ms");
  put("ml.fit_ms.p99", Quantile(fit_ms, 0.99), "ms");
  for (const auto& [algo, slot] : per_algo) {
    put("ml.fit_busy_s." + algo, slot.first, "s");
    put("ml.fit_calls." + algo, static_cast<double>(slot.second), "count");
  }
  put("features.importance_ms.p50", Median(importance_ms), "ms");
  put("features.meta_ms.p50", Median(meta_ms), "ms");
  return m;
}

/// One engine run on a freshly built federation.
SearchOutcome SearchOnce(const SearchSpec& spec, const std::string& kb_path,
                         Tracer* tracer) {
  SearchOutcome out;
  const double t_setup = Now();
  Result<std::unique_ptr<Federation>> fed = BuildFederation(spec, kb_path, tracer);
  out.setup_s = Now() - t_setup;
  if (!fed.ok()) {
    out.error = "set-up failed: " + fed.status().ToString();
    return out;
  }
  automl::EngineOptions opt;
  opt.max_iterations = spec.evaluations;
  opt.time_budget_seconds = 1e6;  // Far beyond the cap: the cap must bind.
  opt.num_threads = spec.fanout_threads;
  opt.seed = spec.engine_seed;
  automl::FedForecasterEngine engine((*fed)->meta.get(), opt);
  const double t0 = Now();
  Result<automl::EngineReport> report = engine.Run((*fed)->server.get());
  out.search_s = Now() - t0;
  const fl::TransportStats stats = (*fed)->server->transport_stats();
  out.client_calls = stats.messages;
  out.client_failures = stats.failures + stats.timeouts;
  if (!report.ok()) {
    out.error = "engine run failed: " + report.status().ToString();
    return out;
  }
  out.test_mse = report->test_loss;
  out.loss_history = report->loss_history;
  out.config = report->best_config.ToString();
  out.artifact.config = report->best_config;
  out.artifact.spec = report->spec;
  out.artifact.blob = report->global_model_blob;
  if (report->iterations != spec.evaluations) {
    out.error = "search stopped after " + std::to_string(report->iterations) + " of " +
                std::to_string(spec.evaluations) + " evaluations (budget, not cap)";
    return out;
  }
  if (report->loss_history.size() != spec.evaluations) {
    out.error = std::to_string(spec.evaluations - report->loss_history.size()) +
                " evaluations lost to failed rounds";
    return out;
  }
  if (tracer != nullptr) {
    out.layers = SearchLayers(tracer->Snapshot(), stats, out.search_s, spec.evaluations,
                              spec.fanout_threads, spec.tcp_workers);
  }
  out.ok = true;
  return out;
}

}  // namespace

SearchOutcome RunSearch(const SearchSpec& spec, const std::string& kb_path,
                        Tracer* tracer) {
  // Untraced reps first; a traced run adds one traced rep at the end.
  const int reps = std::max(1, spec.reps);
  std::vector<double> setups, searches;
  SearchOutcome first;
  size_t calls = 0, failures = 0;
  for (int rep = 0; rep <= reps; ++rep) {
    const bool traced_rep = rep == reps;
    if (traced_rep && tracer == nullptr) break;
    SearchOutcome one = SearchOnce(spec, kb_path, traced_rep ? tracer : nullptr);
    calls += one.client_calls;
    failures += one.client_failures;
    if (!one.ok) {
      one.client_calls = calls;
      one.client_failures = failures;
      return one;
    }
    if (rep == 0) {
      first = one;
    } else if (std::string diff = CompareSearches(first, one); !diff.empty()) {
      first.ok = false;
      first.error = "rep " + std::to_string(rep) + " differs from rep 0: " + diff;
      return first;
    }
    if (traced_rep) {
      first.layers = std::move(one.layers);
      first.traced_search_s = one.search_s;
    } else {
      setups.push_back(one.setup_s);
      searches.push_back(one.search_s);
      std::fprintf(stderr, "perfbench: search rep %d: set-up %.3f s, search %.3f s\n", rep,
                   one.setup_s, one.search_s);
    }
  }
  first.setup_s = Median(setups);
  first.search_s = Median(searches);
  first.client_calls = calls;
  first.client_failures = failures;
  return first;
}

std::string CompareSearches(const SearchOutcome& a, const SearchOutcome& b) {
  auto same_bits = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  if (std::memcmp(&a.test_mse, &b.test_mse, sizeof(double)) != 0) {
    return "test MSE differs";
  }
  if (a.config != b.config) return "chosen configuration differs";
  if (!same_bits(a.loss_history, b.loss_history)) return "loss history differs";
  if (!same_bits(a.artifact.blob, b.artifact.blob)) return "global model differs";
  return "";
}

}  // namespace perfbench
