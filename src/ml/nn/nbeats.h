#ifndef FEDFC_ML_NN_NBEATS_H_
#define FEDFC_ML_NN_NBEATS_H_

#include <string>
#include <utility>
#include <vector>

#include "ml/model.h"
#include "ml/nn/adam.h"
#include "ml/nn/dense.h"
#include "ml/scaler.h"

namespace fedfc::ml {

enum class NBeatsBlockKind { kGeneric, kTrend, kSeasonality };

/// Sliding lag-window supervised view of a series: row i is
/// values[i .. i+lookback) and y[i] = values[i+lookback]. Returns false when
/// the series is too short.
bool MakeLagWindows(const std::vector<double>& values, size_t lookback, Matrix* x,
                    std::vector<double>* y);

/// N-BEATS configuration (Oreshkin et al., 2019). The paper's baseline uses
/// 512 seasonal and 64 trend neurons, 2 layers per stack kind, batch 256 and
/// learning rate 5e-4; those are the bench defaults, scaled down here so unit
/// tests stay fast.
struct NBeatsConfig {
  size_t horizon = 1;
  size_t n_generic_blocks = 2;
  size_t n_trend_blocks = 2;
  size_t n_seasonal_blocks = 2;
  size_t generic_width = 64;
  size_t trend_width = 64;
  size_t seasonal_width = 128;
  size_t n_trunk_layers = 2;    ///< FC layers in each block trunk.
  int trend_degree = 2;         ///< Polynomial basis degree.
  int n_harmonics = 4;          ///< Fourier harmonics in seasonal blocks.
  double learning_rate = 5e-4;
  size_t batch_size = 256;
  size_t epochs = 30;
};

/// One doubly-residual N-BEATS block: an FC trunk feeding two linear heads
/// whose outputs are expansion coefficients over a fixed basis (polynomial
/// for trend, Fourier for seasonality, learned/identity for generic).
class NBeatsBlock {
 public:
  NBeatsBlock(NBeatsBlockKind kind, size_t lookback, size_t horizon, size_t width,
              size_t n_trunk_layers, int trend_degree, int n_harmonics);

  void Init(Rng* rng);

  /// x: (batch, lookback) -> {backcast (batch, lookback),
  ///                          forecast (batch, horizon)}.
  std::pair<Matrix, Matrix> Forward(const Matrix& x);

  /// Inference-only forward (no cached state; Backward must not follow).
  [[nodiscard]] std::pair<Matrix, Matrix> ForwardInference(const Matrix& x) const;

  /// Returns grad wrt the block input; accumulates parameter grads.
  Matrix Backward(const Matrix& grad_backcast, const Matrix& grad_forecast);

  void ZeroGrads();
  std::vector<nn::ParamSpan> Params();
  void AppendParameters(std::vector<double>* out) const;
  size_t LoadParameters(const std::vector<double>& params, size_t offset);
  [[nodiscard]] size_t n_params() const;

  [[nodiscard]] NBeatsBlockKind kind() const { return kind_; }

 private:
  NBeatsBlockKind kind_;
  size_t lookback_;
  size_t horizon_;
  std::vector<nn::DenseLayer> trunk_;
  nn::DenseLayer theta_b_;
  nn::DenseLayer theta_f_;
  // Fixed bases (theta_dim x lookback / horizon); empty for generic blocks
  // where the heads directly emit the backcast/forecast.
  Matrix basis_b_;
  Matrix basis_f_;
};

/// N-BEATS as a Regressor over lag-window rows: each input row is a lookback
/// window, the target is the next value (horizon 1 in the AutoML loop).
/// Supports federated parameter averaging (all weights flat).
class NBeatsRegressor : public Regressor {
 public:
  NBeatsRegressor() = default;
  explicit NBeatsRegressor(NBeatsConfig config) : config_(config) {}

  /// Builds the architecture for a given lookback without training (used by
  /// the FL server to instantiate a receiving model before SetParameters).
  Status Build(size_t lookback, Rng* rng);

  Status Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) override;
  std::vector<double> Predict(const Matrix& x) const override;

  std::string Name() const override { return "NBeats"; }
  std::vector<double> GetParameters() const override;
  Status SetParameters(const std::vector<double>& params) override;
  [[nodiscard]] const NBeatsConfig& config() const { return config_; }
  [[nodiscard]] size_t n_params() const;
  [[nodiscard]] bool built() const { return !blocks_.empty(); }

 private:
  /// Forward over all blocks with residual stacking; training path.
  std::vector<double> ForwardTrain(const Matrix& x);

  NBeatsConfig config_;
  size_t lookback_ = 0;
  std::vector<NBeatsBlock> blocks_;
  TargetScaler scaler_;  ///< Shared signal scaler for windows and targets.
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_NN_NBEATS_H_
