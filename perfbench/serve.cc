#include "serve.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "core/rng.h"
#include "fl/payload.h"
#include "fl/task_codec.h"
#include "net/frame.h"
#include "serve/client.h"

namespace perfbench {
namespace {

using fedfc::Result;
using fedfc::Status;
namespace automl = fedfc::automl;
namespace fl = fedfc::fl;

/// Failed or refused requests count as missing any latency limit.
constexpr double kFailedLatencyMs = 1e6;

/// A running fedfc_serve child. Stop (also run by the destructor) sends the
/// shutdown frame and reaps the process, killing it if it does not exit.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  Status Start(const std::string& bin, const std::string& registry) {
    int fds[2];
    if (::pipe(fds) != 0) return Status::Internal("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) return Status::Internal("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(bin.c_str(), bin.c_str(), "--registry", registry.c_str(), "--port", "0",
              "--require-model", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // "fedfc_serve listening <host> <port> (...)" is the readiness line.
    std::string line;
    const double deadline = Now() + 10.0;
    while (line.find('\n') == std::string::npos) {
      const int left_ms = static_cast<int>((deadline - Now()) * 1e3);
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || ::poll(&pfd, 1, left_ms) <= 0) {
        return Status::DeadlineExceeded("fedfc_serve did not report its port");
      }
      char buf[256];
      const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
      if (got <= 0) return Status::Internal("fedfc_serve exited during start-up");
      line.append(buf, static_cast<size_t>(got));
    }
    unsigned port = 0;
    char host[64] = {0};
    if (std::sscanf(line.c_str(), "fedfc_serve listening %63s %u", host, &port) != 2) {
      return Status::Internal("unexpected fedfc_serve banner: " + line);
    }
    port_ = static_cast<uint16_t>(port);
    return Status::OK();
  }

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }

  void Stop() {
    if (pid_ <= 0) return;
    if (port_ != 0) {
      Result<fedfc::serve::ServeClient> client =
          fedfc::serve::ServeClient::Connect("127.0.0.1", port_, 1000);
      if (client.ok()) (void)client->SendShutdown();
    }
    int status = 0;
    const double deadline = Now() + 5.0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

Status WaitForPing(uint16_t port, double timeout_s) {
  const double deadline = Now() + timeout_s;
  Status last = Status::DeadlineExceeded("no ping");
  while (Now() < deadline) {
    Result<fedfc::serve::ServeClient> client =
        fedfc::serve::ServeClient::Connect("127.0.0.1", port, 1000);
    if (client.ok()) {
      Result<fl::PingReply> ping = client->Ping();
      if (ping.ok() && ping->model_version > 0) return Status::OK();
      last = ping.ok() ? Status::FailedPrecondition("no model yet") : ping.status();
    } else {
      last = client.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return last;
}

struct Arrival {
  double due = 0.0;  ///< Seconds after the phase start.
  bool warmup = false;  ///< Sent and checked, but not in the latency metrics.
  bool large = false;
  size_t pool = 0;
};

/// Poisson arrivals at `rate` for `warmup + seconds`, shapes and rows drawn
/// from the request pools — computed before the phase starts. A `rate` of 0
/// makes `count` arrivals all due at once (the saturation phase).
std::vector<Arrival> MakeSchedule(fedfc::Rng& rng, double rate, double warmup,
                                  double seconds, size_t count, double large_share,
                                  size_t pool_small, size_t pool_large) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    if (rate > 0) {
      t += -std::log(1.0 - rng.Uniform()) / rate;
      if (t >= warmup + seconds) break;
    } else if (out.size() == count) {
      break;
    }
    Arrival a;
    a.due = t;
    a.warmup = t < warmup;
    a.large = rng.Uniform() < large_share;
    a.pool = rng.Index(a.large ? pool_large : pool_small);
    out.push_back(a);
  }
  return out;
}

struct Record {
  double due = 0.0;   ///< Absolute.
  bool warmup = false;
  double send = 0.0;
  double done = 0.0;
  double gen_lag = 0.0;
  bool large = false;
  bool ok = false;
  int64_t version = 0;
  std::vector<double> predictions;  ///< Sampled requests only.
  size_t pool = 0;
};

struct Publish {
  double at = 0.0;  ///< Seconds after the phase start.
  const automl::ModelArtifact* artifact = nullptr;
};

struct PhaseResult {
  std::vector<Record> records;
  std::vector<std::pair<int, double>> commits;  ///< Version, commit time.
  std::vector<double> publish_ms;
  std::string error;
};

/// Replays `schedule` through `connections` blocking ServeClients: each
/// connection takes the next due request, sleeps until its due time and
/// sends it. Latency is timed from the due time, so a stalled server delays
/// every later request on the books. With `stop_after` > 0 no request is
/// taken later than that many seconds into the phase, and the records keep
/// only the requests taken.
PhaseResult RunPhase(uint16_t port, const std::vector<Arrival>& schedule,
                     const std::vector<fl::ForecastRequest>& small,
                     const std::vector<fl::ForecastRequest>& large,
                     size_t connections, const std::vector<Publish>& publishes,
                     const std::string& registry, Tracer* tracer, double stop_after) {
  constexpr size_t kSampleEvery = 29;  // Replies kept for the bit-exact check.
  PhaseResult out;
  out.records.resize(schedule.size());
  std::vector<std::unique_ptr<fedfc::serve::ServeClient>> clients;
  for (size_t c = 0; c < connections; ++c) {
    Result<fedfc::serve::ServeClient> client =
        fedfc::serve::ServeClient::Connect("127.0.0.1", port, 5000);
    if (!client.ok()) {
      out.error = "connect: " + client.status().ToString();
      return out;
    }
    clients.push_back(std::make_unique<fedfc::serve::ServeClient>(std::move(*client)));
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> backwards{false};
  const double t0 = Now() + 0.005;
  // Sleeps to just before `at`, then yields until it: a timer wake-up on a
  // shared VM can land hundreds of microseconds late, and that lateness
  // would be charged to the server.
  auto until = [](double at) {
    constexpr double kSpin = 300e-6;
    const double wait = at - kSpin - Now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    while (Now() < at) std::this_thread::yield();
  };
  auto worker = [&](size_t c) {
    int64_t last_version = 0;
    for (;;) {
      if (stop_after > 0 && Now() >= t0 + stop_after) return;
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const Arrival& a = schedule[i];
      Record& r = out.records[i];
      r.due = t0 + a.due;
      r.warmup = a.warmup;
      r.large = a.large;
      r.pool = a.pool;
      const double fetched = Now();
      until(r.due);
      r.send = Now();
      r.gen_lag = r.send - std::max(r.due, fetched);
      Result<fl::ForecastReply> reply =
          clients[c]->Forecast(a.large ? large[a.pool] : small[a.pool]);
      r.done = Now();
      r.ok = reply.ok();
      if (tracer != nullptr) {
        Span span;
        span.name = "forecast";
        span.detail = a.large ? "large" : "small";
        span.start = r.send;
        span.end = r.done;
        span.ok = r.ok;
        tracer->Record(std::move(span));
      }
      if (!reply.ok()) {
        // The stream may be poisoned; reconnect for the next request.
        Result<fedfc::serve::ServeClient> again =
            fedfc::serve::ServeClient::Connect("127.0.0.1", port, 5000);
        if (again.ok()) *clients[c] = std::move(*again);
        continue;
      }
      r.version = reply->model_version;
      if (r.version < last_version) backwards.store(true);
      last_version = r.version;
      if (i % kSampleEvery == 0) r.predictions = std::move(reply->predictions);
    }
  };
  std::thread publisher([&]() {
    for (const Publish& p : publishes) {
      until(t0 + p.at);
      const double s = Now();
      Result<int> v = automl::PublishModelArtifact(registry, *p.artifact);
      const double e = Now();
      if (!v.ok()) {
        out.error = "publish: " + v.status().ToString();
        return;
      }
      out.publish_ms.push_back((e - s) * 1e3);
      out.commits.emplace_back(*v, e);
    }
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  publisher.join();
  out.records.resize(std::min(next.load(), schedule.size()));
  if (backwards.load() && out.error.empty()) {
    out.error = "a connection saw the model version go backwards";
  }
  return out;
}

std::vector<double> LatenciesMs(const std::vector<Record>& records) {
  std::vector<double> ms;
  ms.reserve(records.size());
  for (const Record& r : records) {
    if (!r.warmup) ms.push_back(r.ok ? (r.done - r.due) * 1e3 : kFailedLatencyMs);
  }
  return ms;
}

fl::ForecastRequest MakeRequest(fedfc::Rng& rng, size_t rows, size_t cols) {
  fl::ForecastRequest req;
  req.n_cols = static_cast<int64_t>(cols);
  req.rows.resize(rows * cols);
  for (double& v : req.rows) v = rng.Uniform(-2.0, 2.0);
  return req;
}

fedfc::Matrix ToMatrix(const fl::ForecastRequest& req) {
  fedfc::Matrix x(req.n_rows(), static_cast<size_t>(req.n_cols));
  x.data() = req.rows;
  return x;
}

/// One request and its reply through every codec layer and back:
/// ToPayload -> Serialize -> EncodeFrame -> DecodeFrame -> Deserialize ->
/// FromPayload, for both directions.
void CodecRoundTrip(const fl::ForecastRequest& req, const fl::ForecastReply& reply) {
  auto cycle = [](const fl::Payload& payload) {
    fedfc::net::Frame frame;
    frame.type = fedfc::net::FrameType::kRequest;
    frame.task = fl::tasks::kForecast;
    frame.body = payload.Serialize();
    Result<fedfc::net::Frame> decoded = fedfc::net::DecodeFrame(fedfc::net::EncodeFrame(frame));
    FEDFC_CHECK(decoded.ok()) << decoded.status();
    Result<fl::Payload> back = fl::Payload::Deserialize(decoded->body);
    FEDFC_CHECK(back.ok()) << back.status();
    return std::move(*back);
  };
  Result<fl::ForecastRequest> r = fl::ForecastRequest::FromPayload(cycle(req.ToPayload()));
  Result<fl::ForecastReply> p = fl::ForecastReply::FromPayload(cycle(reply.ToPayload()));
  FEDFC_CHECK(r.ok() && p.ok());
}

}  // namespace

ServeOutcome RunServe(const ServeSpec& spec, const VersionBuilder& build,
                      uint64_t seed, const std::string& serve_bin,
                      const std::string& work_dir, Tracer* tracer) {
  ServeOutcome out;
  std::unique_ptr<ServerProcess> server;
  std::vector<automl::ModelArtifact> versions;
  std::string registry;
  std::vector<double> setups;
  int first_version = 0;
  for (int rep = 0; rep < std::max(1, spec.setup_reps); ++rep) {
    server.reset();
    registry = work_dir + "/registry-" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(registry, ec);
    const double t0 = Now();
    Result<std::vector<automl::ModelArtifact>> built = build();
    if (!built.ok()) {
      out.error = "building model versions: " + built.status().ToString();
      return out;
    }
    versions = std::move(*built);
    if (versions.size() < 1 + spec.publishes * (tracer != nullptr ? 2 : 1)) {
      out.error = "too few model versions built";
      return out;
    }
    Result<int> v1 = automl::PublishModelArtifact(registry, versions[0]);
    if (!v1.ok()) {
      out.error = "publish: " + v1.status().ToString();
      return out;
    }
    first_version = *v1;
    server = std::make_unique<ServerProcess>();
    Status started = server->Start(serve_bin, registry);
    if (started.ok()) started = WaitForPing(server->port(), 10.0);
    setups.push_back(Now() - t0);
    if (!started.ok()) {
      out.error = "fedfc_serve: " + started.ToString();
      return out;
    }
  }
  out.setup_s = Median(setups);

  std::vector<automl::Forecaster> forecasters;
  for (const automl::ModelArtifact& a : versions) {
    Result<automl::Forecaster> f = automl::Forecaster::FromArtifact(a);
    if (!f.ok()) {
      out.error = "forecaster: " + f.status().ToString();
      return out;
    }
    forecasters.push_back(std::move(*f));
  }
  const size_t width = forecasters[0].n_features();
  fedfc::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<fl::ForecastRequest> small, large;
  for (int i = 0; i < 32; ++i) small.push_back(MakeRequest(rng, spec.small_rows, width));
  for (int i = 0; i < 8; ++i) large.push_back(MakeRequest(rng, spec.large_rows, width));

  // Every schedule is drawn before the first request is sent.
  auto schedule = [&](double rate, double warmup, double seconds, size_t count) {
    return MakeSchedule(rng, rate, warmup, seconds, count, spec.large_share, small.size(),
                        large.size());
  };
  const std::vector<Arrival> fixed =
      schedule(spec.fixed_rate, spec.warmup_seconds, spec.fixed_seconds, 0);
  // Traced runs only. Enough requests for 10k req/s, well above what four
  // connections reach.
  const std::vector<Arrival> saturation = schedule(
      0.0, 0.0, 0.0,
      tracer != nullptr ? static_cast<size_t>(10000 * spec.saturation_seconds) : 0);
  const std::vector<Arrival> fixed_traced =
      schedule(spec.fixed_rate, spec.warmup_seconds, spec.fixed_seconds, 0);
  // Versions 1..p are published during the fixed phase, p+1..2p during its
  // traced twin, evenly spaced.
  auto publishes = [&](size_t first) {
    std::vector<Publish> p;
    const double every = spec.fixed_seconds / static_cast<double>(spec.publishes + 1);
    for (size_t k = 0; k < spec.publishes; ++k) {
      p.push_back({spec.warmup_seconds + every * static_cast<double>(k + 1),
                   &versions[first + k]});
    }
    return p;
  };
  auto phase = [&](const std::vector<Arrival>& sched, const std::vector<Publish>& pubs,
                   Tracer* t, double stop_after) {
    return RunPhase(server->port(), sched, small, large, spec.connections, pubs, registry, t,
                    stop_after);
  };

  std::vector<PhaseResult> phases;  // Every phase run, for the checks.
  phases.reserve(3);  // fixed_phase below stays valid.
  phases.push_back(phase(fixed, publishes(1), nullptr, 0.0));
  const PhaseResult& fixed_phase = phases.back();
  const std::vector<double> lat = LatenciesMs(fixed_phase.records);
  out.p50_ms = Quantile(lat, 0.5);

  double traced_p50 = 0.0, saturation_rps = 0.0;
  if (tracer != nullptr) {
    phases.push_back(phase(fixed_traced, publishes(1 + spec.publishes), tracer, 0.0));
    traced_p50 = Quantile(LatenciesMs(phases.back().records), 0.5);
    // Saturation: every request is due at once, so every connection sends
    // its next request as soon as its reply lands. The rate of successful
    // replies, after a warm-up, as the median over 0.5 s windows.
    phases.push_back(phase(saturation, {}, nullptr, spec.saturation_seconds));
    constexpr double kWindow = 0.5;
    const std::vector<Record>& records = phases.back().records;
    const double from = records.empty() ? 0.0 : records.front().due + spec.warmup_seconds;
    const auto n_windows = static_cast<size_t>(
        std::max(1.0, (spec.saturation_seconds - spec.warmup_seconds) / kWindow));
    std::vector<double> served(n_windows, 0.0);
    for (const Record& r : records) {
      if (!r.ok || r.done < from) continue;
      const auto w = static_cast<size_t>((r.done - from) / kWindow);
      if (w < n_windows) served[w] += 1.0 / kWindow;
    }
    saturation_rps = Median(served);
  }

  // Checks: sampled replies bit-for-bit against Forecaster::Forecast on the
  // version each reply names; every published version was served.
  std::map<int64_t, size_t> version_index{{first_version, 0}};
  std::vector<double> publish_ms, swap_lag_ms;
  size_t next_version = 1;
  for (const PhaseResult& p : phases) {
    if (!p.error.empty()) {
      out.error = p.error;
      return out;
    }
    publish_ms.insert(publish_ms.end(), p.publish_ms.begin(), p.publish_ms.end());
    for (const auto& [version, at] : p.commits) {
      version_index[version] = next_version++;
      double first = -1.0;
      for (const Record& r : p.records) {
        if (r.ok && r.version >= version && (first < 0 || r.done < first)) first = r.done;
      }
      if (first < 0) {
        out.error = "published v" + std::to_string(version) + " was never served";
        return out;
      }
      swap_lag_ms.push_back((first - at) * 1e3);
    }
  }
  size_t checked = 0;
  std::vector<double> gen_lag_ms;
  for (const PhaseResult& p : phases) {
    for (const Record& r : p.records) {
      ++out.sent;
      gen_lag_ms.push_back(r.gen_lag * 1e3);
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      if (r.predictions.empty()) continue;
      auto it = version_index.find(r.version);
      if (it == version_index.end()) {
        out.error = "reply names unknown model version " + std::to_string(r.version);
        return out;
      }
      const fl::ForecastRequest& req = r.large ? large[r.pool] : small[r.pool];
      Result<std::vector<double>> want = forecasters[it->second].Forecast(ToMatrix(req));
      if (!want.ok() || want->size() != r.predictions.size() ||
          std::memcmp(want->data(), r.predictions.data(), want->size() * sizeof(double)) !=
              0) {
        out.error = "served forecast differs from Forecaster::Forecast (v" +
                    std::to_string(r.version) + ")";
        return out;
      }
      ++checked;
    }
  }
  if (checked == 0) {
    out.error = "no reply was checked";
    return out;
  }
  out.server_rss_mib = PeakRssMib(server->pid());

  if (tracer != nullptr) {
    const fl::ForecastRequest& s_req = small[0];
    const fl::ForecastRequest& l_req = large[0];
    const fedfc::Matrix s_x = ToMatrix(s_req);
    const fedfc::Matrix l_x = ToMatrix(l_req);
    const automl::Forecaster& f = forecasters[0];
    const double eval_small = MedianMicros(301, [&]() { (void)f.Forecast(s_x); });
    const double eval_large = MedianMicros(101, [&]() { (void)f.Forecast(l_x); });
    const fl::ForecastReply s_reply{*f.Forecast(s_x), 1};
    const fl::ForecastReply l_reply{*f.Forecast(l_x), 1};
    const double codec_small = MedianMicros(301, [&]() { CodecRoundTrip(s_req, s_reply); });
    const double codec_large = MedianMicros(101, [&]() { CodecRoundTrip(l_req, l_reply); });
    std::vector<double> residual_ms;
    for (const Record& r : fixed_phase.records) {
      if (!r.ok || r.warmup) continue;
      const double known_us = r.large ? eval_large + codec_large : eval_small + codec_small;
      residual_ms.push_back((r.done - r.send) * 1e3 - known_us / 1e3);
    }
    Metrics& m = out.layers;
    m["net.codec_us.small"] = {codec_small, "us"};
    m["net.codec_us.large"] = {codec_large, "us"};
    m["serve.eval_us.small"] = {eval_small, "us"};
    m["serve.eval_us.large"] = {eval_large, "us"};
    m["serve.residual_ms.p50"] = {Median(residual_ms), "ms"};
    m["serve.forecast_p99_ms"] = {Quantile(lat, 0.99), "ms"};
    m["serve.publish_ms"] = {Median(publish_ms), "ms"};
    m["serve.swap_lag_ms"] = {Median(swap_lag_ms), "ms"};
    m["serve.generator_lag_ms.p99"] = {Quantile(gen_lag_ms, 0.99), "ms"};
    m["serve.requests_sent"] = {static_cast<double>(out.sent), "count"};
    m["serve.requests_failed"] = {static_cast<double>(out.failed), "count"};
    m["serve.saturation_rps"] = {saturation_rps, "req/s"};
    m["trace.forecast_p50_ms"] = {traced_p50, "ms"};
    m["trace.overhead.forecast_p50_ms"] = {traced_p50 / out.p50_ms - 1.0, "ratio"};
  }
  out.ok = true;
  return out;
}

Result<std::vector<automl::ModelArtifact>> BuildXgbVersions(uint64_t seed,
                                                            size_t n_versions) {
  constexpr size_t kCols = 12;
  constexpr size_t kClients = 5;
  automl::Configuration config;
  config.algorithm = automl::AlgorithmId::kXgb;
  // 10 rounds per client, 50 trees in all: a 256-row request takes about
  // 1 ms to evaluate, most of its latency, while a 16-row one stays cheap.
  // Larger ensembles made CPU time most of forecast_p50_ms, which then
  // moved with the load of a shared host (README.md).
  config.numeric = {{"n_estimators", 10}, {"max_depth", 8}, {"learning_rate", 0.3},
                    {"reg_lambda", 1.0}, {"subsample", 1.0}};
  std::vector<automl::ModelArtifact> out;
  for (size_t v = 0; v < n_versions; ++v) {
    automl::ModelBlobAccumulator acc(config);
    for (size_t c = 0; c < kClients; ++c) {
      fedfc::Rng rng(seed * 1000003 + v * 101 + c);
      const size_t rows = 400 + 40 * c;
      fedfc::Matrix x(rows, kCols);
      std::vector<double> y(rows);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t k = 0; k < kCols; ++k) x(i, k) = rng.Uniform(-2.0, 2.0);
        y[i] = 3.0 * std::sin(x(i, 0)) + x(i, 1) * x(i, 2) + 0.5 * x(i, 3) +
               rng.Normal(0.0, 0.3);
      }
      FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<fedfc::ml::Regressor> model,
                             automl::CreateRegressor(config));
      FEDFC_RETURN_IF_ERROR(model->Fit(x, y, &rng));
      FEDFC_ASSIGN_OR_RETURN(std::vector<double> blob, automl::SerializeModel(config, *model));
      FEDFC_RETURN_IF_ERROR(acc.Add(static_cast<double>(rows), blob));
    }
    automl::ModelArtifact artifact;
    artifact.config = config;
    artifact.spec.n_lags = kCols;
    artifact.spec.include_time_features = false;
    artifact.spec.include_trend_feature = false;
    FEDFC_ASSIGN_OR_RETURN(artifact.blob, acc.Finish());
    out.push_back(std::move(artifact));
  }
  return out;
}

}  // namespace perfbench
