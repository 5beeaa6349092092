#ifndef FEDFC_FL_TASK_CODEC_H_
#define FEDFC_FL_TASK_CODEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/result.h"
#include "fl/payload.h"

namespace fedfc::fl {

/// The protocol's task identifiers. Every federated round carries exactly one
/// of these; the typed request/reply structs below are their codecs. Keeping
/// ids and codecs in one header makes the whole wire protocol greppable.
namespace tasks {
inline constexpr char kMetaFeatures[] = "meta_features";
inline constexpr char kFeatureImportance[] = "feature_importance";
inline constexpr char kFitEvaluate[] = "fit_evaluate";
inline constexpr char kFitFinal[] = "fit_final";
inline constexpr char kEvaluateModel[] = "evaluate_model";
inline constexpr char kNBeatsRound[] = "nbeats_round";
inline constexpr char kNBeatsEvaluate[] = "nbeats_evaluate";
/// Control task answered by the worker serve loop itself (never by a
/// Client handler): reports the client's |D_j| so a remote server can build
/// its weight vector without out-of-band knowledge. The double underscore
/// marks it as transport plumbing, not a protocol round.
inline constexpr char kNumExamples[] = "__num_examples";
/// Inference-serving task (fedfc_serve): engineered feature rows in,
/// per-row forecasts out. Served by serve/ForecastServer, never by a
/// federated Client handler.
inline constexpr char kForecast[] = "forecast";
/// Serving control task: liveness probe that also reports which model
/// version is live (double underscore = plumbing, as with __num_examples).
inline constexpr char kPing[] = "__ping";
}  // namespace tasks

// ---------------------------------------------------------------------------
// Typed request/reply structs, one pair per task. Each converts to/from the
// generic Payload with ToPayload/FromPayload; the key strings live only here,
// so neither side of the wire ever touches a raw SetTensor/GetTensor literal.
// The payload layout is identical to the historical hand-rolled keys, so wire
// bytes (and therefore transport statistics) are unchanged.
// ---------------------------------------------------------------------------

/// `meta_features`: request is empty; reply carries the client's Table 1
/// meta-feature tensor and its instance count.
struct MetaFeaturesRequest {
  [[nodiscard]] Payload ToPayload() const { return Payload(); }
  static Result<MetaFeaturesRequest> FromPayload(const Payload&) {
    return MetaFeaturesRequest();
  }
};

struct MetaFeaturesReply {
  std::vector<double> meta_features;
  int64_t n_instances = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<MetaFeaturesReply> FromPayload(const Payload& p);
};

/// `feature_importance`: server sends the engineering spec tensor; client
/// replies with normalized RF importances over the engineered schema.
struct FeatureImportanceRequest {
  std::vector<double> spec;

  [[nodiscard]] Payload ToPayload() const;
  static Result<FeatureImportanceRequest> FromPayload(const Payload& p);
};

struct FeatureImportanceReply {
  std::vector<double> importances;

  [[nodiscard]] Payload ToPayload() const;
  static Result<FeatureImportanceReply> FromPayload(const Payload& p);
};

/// `fit_evaluate`: spec + candidate configuration out, validation loss back.
struct FitEvaluateRequest {
  std::vector<double> spec;
  std::vector<double> config;

  [[nodiscard]] Payload ToPayload() const;
  static Result<FitEvaluateRequest> FromPayload(const Payload& p);
};

struct FitEvaluateReply {
  double valid_loss = 0.0;
  int64_t n_valid = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<FitEvaluateReply> FromPayload(const Payload& p);
};

/// `fit_final`: spec + winning configuration out, serialized local model back.
struct FitFinalRequest {
  std::vector<double> spec;
  std::vector<double> config;

  [[nodiscard]] Payload ToPayload() const;
  static Result<FitFinalRequest> FromPayload(const Payload& p);
};

struct FitFinalReply {
  std::vector<double> model_blob;
  int64_t n_fit = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<FitFinalReply> FromPayload(const Payload& p);
};

/// `evaluate_model`: spec + configuration + aggregated global model out,
/// held-out test loss back.
struct EvaluateModelRequest {
  std::vector<double> spec;
  std::vector<double> config;
  std::vector<double> model_blob;

  [[nodiscard]] Payload ToPayload() const;
  static Result<EvaluateModelRequest> FromPayload(const Payload& p);
};

struct EvaluateModelReply {
  double test_loss = 0.0;
  int64_t n_test = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<EvaluateModelReply> FromPayload(const Payload& p);
};

/// `nbeats_round`: FedAvg training round. `params` is absent on the very
/// first round (clients start from the shared init seed).
struct NBeatsRoundRequest {
  std::optional<std::vector<double>> params;

  [[nodiscard]] Payload ToPayload() const;
  static Result<NBeatsRoundRequest> FromPayload(const Payload& p);
};

struct NBeatsRoundReply {
  std::vector<double> params;
  double train_loss = 0.0;
  int64_t n_train = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<NBeatsRoundReply> FromPayload(const Payload& p);
};

/// `nbeats_evaluate`: evaluate the averaged parameters on local test windows.
struct NBeatsEvaluateRequest {
  std::optional<std::vector<double>> params;

  [[nodiscard]] Payload ToPayload() const;
  static Result<NBeatsEvaluateRequest> FromPayload(const Payload& p);
};

struct NBeatsEvaluateReply {
  double test_loss = 0.0;
  int64_t n_test = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<NBeatsEvaluateReply> FromPayload(const Payload& p);
};

/// `__num_examples`: request is empty; reply carries the client's local
/// example count (the aggregation weight numerator of Equation 1).
struct NumExamplesRequest {
  [[nodiscard]] Payload ToPayload() const { return Payload(); }
  static Result<NumExamplesRequest> FromPayload(const Payload&) {
    return NumExamplesRequest();
  }
};

struct NumExamplesReply {
  int64_t n_examples = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<NumExamplesReply> FromPayload(const Payload& p);
};

/// `forecast`: one or more engineered feature rows (row-major, `n_cols`
/// wide) out, one prediction per row back. FromPayload enforces the shape
/// invariants (n_cols >= 1, a non-empty row block divisible by n_cols), so
/// a decoded request always describes a well-formed matrix.
struct ForecastRequest {
  int64_t n_cols = 0;
  std::vector<double> rows;  ///< Row-major, rows.size() / n_cols rows.

  [[nodiscard]] size_t n_rows() const {
    return n_cols > 0 ? rows.size() / static_cast<size_t>(n_cols) : 0;
  }

  [[nodiscard]] Payload ToPayload() const;
  static Result<ForecastRequest> FromPayload(const Payload& p);
};

/// Reply carries the serving model version so hot-swap tests (and cautious
/// clients) can prove a response was produced wholly by one version.
struct ForecastReply {
  std::vector<double> predictions;
  int64_t model_version = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<ForecastReply> FromPayload(const Payload& p);
};

/// `__ping`: request is empty; reply reports the live model version (0 =
/// no model loaded yet).
struct PingRequest {
  [[nodiscard]] Payload ToPayload() const { return Payload(); }
  static Result<PingRequest> FromPayload(const Payload&) {
    return PingRequest();
  }
};

struct PingReply {
  int64_t model_version = 0;

  [[nodiscard]] Payload ToPayload() const;
  static Result<PingReply> FromPayload(const Payload& p);
};

/// On-disk model-artifact record for the serving registry (the body of
/// `<root>/v<NNN>/model.fpb`): the winning configuration and unified
/// feature spec as their wire tensors plus the aggregated global model
/// blob. Lives here with the other codecs so every payload key in the tree
/// stays inside fl/task_codec.{h,cc} (the wire_keys lint rule).
struct ModelArtifactRecord {
  std::vector<double> config;
  std::vector<double> spec;
  std::vector<double> model_blob;

  [[nodiscard]] Payload ToPayload() const;
  static Result<ModelArtifactRecord> FromPayload(const Payload& p);
};

// ---------------------------------------------------------------------------
// Handler registry: the client-side dispatch table keyed by task id. A
// client registers one handler per task it speaks; Dispatch routes a round's
// request and unknown tasks report the registered vocabulary.
// ---------------------------------------------------------------------------

class TaskRegistry {
 public:
  using Handler = std::function<Result<Payload>(const Payload&)>;

  void Register(std::string task, Handler handler) {
    handlers_[std::move(task)] = std::move(handler);
  }

  /// Registers a typed handler: the request is decoded and the reply encoded
  /// through the task's codec, so handlers never see a raw Payload.
  template <typename Request, typename Reply, typename Fn>
  void RegisterTyped(std::string task, Fn fn) {
    Register(std::move(task), [fn](const Payload& p) -> Result<Payload> {
      FEDFC_ASSIGN_OR_RETURN(Request request, Request::FromPayload(p));
      FEDFC_ASSIGN_OR_RETURN(Reply reply, fn(request));
      return reply.ToPayload();
    });
  }

  [[nodiscard]] bool Has(const std::string& task) const { return handlers_.count(task) > 0; }

  [[nodiscard]] Result<Payload> Dispatch(const std::string& task, const Payload& request) const {
    auto it = handlers_.find(task);
    if (it == handlers_.end()) {
      std::string known;
      for (const auto& [id, _] : handlers_) {
        if (!known.empty()) known += ", ";
        known += id;
      }
      return Status::Unimplemented("unknown client task: " + task +
                                   " (handles: [" + known + "])");
    }
    return it->second(request);
  }

 private:
  std::map<std::string, Handler> handlers_;
};

}  // namespace fedfc::fl

#endif  // FEDFC_FL_TASK_CODEC_H_
