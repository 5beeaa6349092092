#include "ml/tree/hist_gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/vec_math.h"

namespace fedfc::ml {

namespace {

struct SplitCandidate {
  double gain = -1.0;
  int feature = -1;
  int bin = -1;  ///< Go left when bin(value) <= bin.
};

struct LeafState {
  std::vector<size_t> rows;
  double g_sum = 0.0;
  double h_sum = 0.0;
  int32_t node_index = -1;
  SplitCandidate best;
};

double LeafScore(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

SplitCandidate FindBestSplit(const gbdt_internal::BinnedMatrix& binned,
                             const std::vector<double>& g,
                             const std::vector<double>& h, const LeafState& leaf,
                             double lambda, size_t min_leaf) {
  SplitCandidate best;
  const size_t n = leaf.rows.size();
  if (n < 2 * min_leaf) return best;
  std::vector<double> hist_g, hist_h;
  std::vector<size_t> hist_n;
  for (size_t f = 0; f < binned.cols(); ++f) {
    int nb = binned.n_bins(f);
    if (nb < 2) continue;
    const size_t n_bins = static_cast<size_t>(nb);
    hist_g.assign(n_bins, 0.0);
    hist_h.assign(n_bins, 0.0);
    hist_n.assign(n_bins, 0);
    const uint8_t* bins = binned.bins_data() + f;
    for (size_t r : leaf.rows) {
      const size_t b = bins[r * binned.cols()];
      hist_g[b] += g[r];
      hist_h[b] += h[r];
      hist_n[b] += 1;
    }
    double gl = 0.0, hl = 0.0;
    size_t nl = 0;
    double parent = LeafScore(leaf.g_sum, leaf.h_sum, lambda);
    for (size_t b = 0; b + 1 < n_bins; ++b) {
      gl += hist_g[b];
      hl += hist_h[b];
      nl += hist_n[b];
      if (nl < min_leaf || n - nl < min_leaf) continue;
      double gain = 0.5 * (LeafScore(gl, hl, lambda) +
                           LeafScore(leaf.g_sum - gl, leaf.h_sum - hl, lambda) -
                           parent);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.bin = static_cast<int>(b);
      }
    }
  }
  return best;
}

}  // namespace

double HistGbdtClassifier::Tree::PredictRow(const double* row) const {
  const Node* node = nodes.data();
  while (node->feature >= 0) {
    node = nodes.data() +
           (row[node->feature] <= node->threshold ? node->left : node->right);
  }
  return node->weight;
}

HistGbdtClassifier::Tree HistGbdtClassifier::BuildTree(
    const gbdt_internal::BinnedMatrix& binned, const std::vector<double>& g,
    const std::vector<double>& h) const {
  Tree tree;
  const double lambda = config_.reg_lambda;

  LeafState root;
  root.rows.resize(binned.rows());
  std::iota(root.rows.begin(), root.rows.end(), 0);
  for (size_t i : root.rows) {
    root.g_sum += g[i];
    root.h_sum += h[i];
  }
  Node root_node;
  root_node.weight = -root.g_sum / (root.h_sum + lambda);
  tree.nodes.push_back(root_node);
  root.node_index = 0;
  root.best = FindBestSplit(binned, g, h, root, lambda, config_.min_samples_leaf);

  std::vector<LeafState> leaves;
  leaves.push_back(std::move(root));

  // Leaf-wise growth: split the leaf with the highest gain until the leaf
  // budget is exhausted or no leaf has a positive-gain split.
  while (static_cast<int>(leaves.size()) < config_.max_leaves) {
    size_t best_leaf = leaves.size();
    double best_gain = 1e-12;
    for (size_t l = 0; l < leaves.size(); ++l) {
      if (leaves[l].best.gain > best_gain) {
        best_gain = leaves[l].best.gain;
        best_leaf = l;
      }
    }
    if (best_leaf == leaves.size()) break;

    LeafState leaf = std::move(leaves[best_leaf]);
    leaves.erase(leaves.begin() + static_cast<ptrdiff_t>(best_leaf));

    LeafState left, right;
    const size_t split_feature = static_cast<size_t>(leaf.best.feature);
    for (size_t i : leaf.rows) {
      if (binned.bin(i, split_feature) <= leaf.best.bin) {
        left.rows.push_back(i);
        left.g_sum += g[i];
        left.h_sum += h[i];
      } else {
        right.rows.push_back(i);
        right.g_sum += g[i];
        right.h_sum += h[i];
      }
    }

    Node left_node, right_node;
    left_node.weight = -left.g_sum / (left.h_sum + lambda);
    right_node.weight = -right.g_sum / (right.h_sum + lambda);
    tree.nodes.push_back(left_node);
    left.node_index = static_cast<int32_t>(tree.nodes.size() - 1);
    tree.nodes.push_back(right_node);
    right.node_index = static_cast<int32_t>(tree.nodes.size() - 1);

    Node& parent = tree.nodes[static_cast<size_t>(leaf.node_index)];
    parent.feature = leaf.best.feature;
    parent.threshold = binned.UpperEdge(split_feature, leaf.best.bin);
    parent.left = left.node_index;
    parent.right = right.node_index;

    left.best = FindBestSplit(binned, g, h, left, lambda, config_.min_samples_leaf);
    right.best = FindBestSplit(binned, g, h, right, lambda, config_.min_samples_leaf);
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
  }
  return tree;
}

Status HistGbdtClassifier::Fit(const Matrix& x, const std::vector<int>& y,
                               int n_classes, Rng* /*rng*/) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("HistGbdt: bad shapes");
  }
  if (n_classes < 2) return Status::InvalidArgument("HistGbdt: need >= 2 classes");
  n_classes_ = n_classes;
  trees_.clear();
  gbdt_internal::BinnedMatrix binned =
      gbdt_internal::BinnedMatrix::Build(x, config_.max_bins);

  const size_t n = x.rows();
  const size_t k = static_cast<size_t>(n_classes);
  Matrix scores(n, k, 0.0);
  std::vector<double> g(n), h(n);

  for (size_t round = 0; round < config_.n_estimators; ++round) {
    Matrix proba(n, k, 0.0);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> logits(scores.Row(i), scores.Row(i) + k);
      std::vector<double> p = Softmax(logits);
      for (size_t c = 0; c < k; ++c) proba(i, c) = p[c];
    }
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < n; ++i) {
        double p = proba(i, c);
        g[i] = p - (y[i] == static_cast<int>(c) ? 1.0 : 0.0);
        h[i] = std::max(p * (1.0 - p), 1e-6);
      }
      Tree tree = BuildTree(binned, g, h);
      for (size_t i = 0; i < n; ++i) {
        scores(i, c) += config_.learning_rate * tree.PredictRow(x.Row(i));
      }
      trees_.push_back(std::move(tree));
    }
  }
  return Status::OK();
}

Matrix HistGbdtClassifier::PredictProba(const Matrix& x) const {
  FEDFC_CHECK(!trees_.empty()) << "PredictProba before Fit";
  const size_t k = static_cast<size_t>(n_classes_);
  Matrix out(x.rows(), k, 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    std::vector<double> logits(k, 0.0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      logits[t % k] += config_.learning_rate * trees_[t].PredictRow(row);
    }
    std::vector<double> p = Softmax(logits);
    for (size_t c = 0; c < k; ++c) out(r, c) = p[c];
  }
  return out;
}

}  // namespace fedfc::ml
