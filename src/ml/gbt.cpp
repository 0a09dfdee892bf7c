#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {
namespace {

// Node-constant inputs and running best of one node's exact split search.
struct GainSearch {
  const double* grad = nullptr;
  const double* hess = nullptr;
  double g_total = 0.0;
  double h_total = 0.0;
  double parent_score = 0.0;
  double lambda = 0.0;
  double min_child_weight = 0.0;
  double best_gain = 0.0;
  std::int32_t best_feature = -1;
  double best_threshold = 0.0;
};

// Scans one feature's n node entries in (value, row) order and keeps the
// highest-gain split. The running sums and the best candidate live in
// locals, so stores never force a reload of grad/hess.
void scan_column(GainSearch& s, std::size_t f, const std::uint32_t* rows,
                 const double* values, std::size_t n) {
  const double lambda = s.lambda;
  const double min_child_weight = s.min_child_weight;
  double g_left = 0.0;
  double h_left = 0.0;
  double best_gain = s.best_gain;
  bool improved = false;
  double best_threshold = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::uint32_t row = rows[i];
    g_left += s.grad[row];
    h_left += s.hess[row];
    if (values[i] == values[i + 1]) continue;  // no split between equals
    const double h_right = s.h_total - h_left;
    if (h_left >= min_child_weight && h_right >= min_child_weight) {
      const double g_right = s.g_total - g_left;
      const auto [left_term, right_term] =
          divide_pair(g_left * g_left, h_left + lambda, g_right * g_right,
                      h_right + lambda);
      const double gain = 0.5 * (left_term + right_term - s.parent_score);
      if (gain > best_gain) {
        best_gain = gain;
        improved = true;
        best_threshold = 0.5 * (values[i] + values[i + 1]);
      }
    }
  }
  if (improved) {
    s.best_gain = best_gain;
    s.best_feature = static_cast<std::int32_t>(f);
    s.best_threshold = best_threshold;
  }
}

// One node's split-search work, added to the ml.gbt.* counters once when
// the node is done (off mode: one relaxed load and a branch per node).
struct NodeTally {
  std::size_t feature_scans = 0;
  std::size_t rows_scanned = 0;
  std::size_t rows_partitioned = 0;
  NodeTally() = default;
  NodeTally(const NodeTally&) = delete;
  NodeTally& operator=(const NodeTally&) = delete;
  ~NodeTally() {
    if (!obs::enabled()) return;
    VARPRED_OBS_COUNT("ml.gbt.nodes", 1);
    VARPRED_OBS_COUNT("ml.gbt.feature_scans", feature_scans);
    VARPRED_OBS_COUNT("ml.gbt.rows_scanned", rows_scanned);
    VARPRED_OBS_COUNT("ml.gbt.rows_partitioned", rows_partitioned);
  }
};

}  // namespace

GradientBoosting::GradientBoosting(GbtParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.n_rounds >= 1, "need at least one round");
  VARPRED_CHECK_ARG(params_.learning_rate > 0.0, "learning rate must be > 0");
  VARPRED_CHECK_ARG(params_.subsample > 0.0 && params_.subsample <= 1.0,
                    "subsample must be in (0, 1]");
  VARPRED_CHECK_ARG(params_.colsample > 0.0 && params_.colsample <= 1.0,
                    "colsample must be in (0, 1]");
  VARPRED_CHECK_ARG(params_.lambda >= 0.0, "lambda must be >= 0");
}

void GradientBoosting::set_presorted(
    std::shared_ptr<const SortedColumns> cols) {
  presorted_hint_ = std::move(cols);
}

double GradientBoosting::BoostTree::predict_one(
    std::span<const double> row) const {
  std::int32_t idx = 0;
  for (;;) {
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.feature < 0) return node.weight;
    idx = row[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

std::int32_t GradientBoosting::build_node(
    BoostTree& tree, const Matrix& x, std::span<const double> grad,
    std::span<const double> hess, std::vector<std::size_t>& work,
    std::size_t begin, std::size_t end, std::size_t depth,
    std::span<const std::size_t> cols, const SortedColumns* presorted,
    ExactScan& exact) const {
  NodeTally tally;
  const std::size_t n = end - begin;
  double g_total = 0.0;
  double h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[work[i]];
    h_total += hess[work[i]];
  }

  auto leaf = [&]() {
    Node node;
    node.feature = -1;
    node.weight = -g_total / (h_total + params_.lambda);
    tree.nodes.push_back(node);
    return static_cast<std::int32_t>(tree.nodes.size() - 1);
  };

  if (depth >= params_.max_depth || n < 2) return leaf();

  const double parent_score = g_total * g_total / (h_total + params_.lambda);
  // One kernel over each candidate feature's node entries in (value, row)
  // order — the node's segment range, the fit-level order filtered to the
  // node, or a per-node sort.
  GainSearch search;
  search.grad = grad.data();
  search.hess = hess.data();
  search.g_total = g_total;
  search.h_total = h_total;
  search.parent_score = parent_score;
  search.lambda = params_.lambda;
  search.min_child_weight = params_.min_child_weight;
  search.best_gain = params_.gamma;
  const bool segmented = exact.root != nullptr;
  const bool filtered = !segmented && presorted != nullptr;
  if (filtered) {
    for (std::size_t i = begin; i < end; ++i) exact.in_node[work[i]] = 1;
  }
  const std::span<const std::size_t> node_rows(work.data() + begin, n);
  for (const std::size_t f : cols) {
    const std::uint32_t* rows;
    const double* values;
    if (segmented) {
      rows = exact.segments.rows(f) + begin;
      values = exact.segments.values(f) + begin;
    } else {
      if (filtered) {
        exact.column.filter(x, f, presorted->order[f], exact.in_node.data());
      } else {
        exact.column.sort(x, f, node_rows);
      }
      rows = exact.column.rows();
      values = exact.column.values();
    }
    if (values[0] == values[n - 1]) continue;  // constant in this node
    ++tally.feature_scans;
    tally.rows_scanned += n;
    scan_column(search, f, rows, values, n);
  }
  if (filtered) {
    for (std::size_t i = begin; i < end; ++i) exact.in_node[work[i]] = 0;
  }
  const std::int32_t best_feature = search.best_feature;
  const double best_threshold = search.best_threshold;

  if (best_feature < 0) return leaf();

  const auto f = static_cast<std::size_t>(best_feature);
  const auto mid_it =
      std::partition(work.begin() + static_cast<std::ptrdiff_t>(begin),
                     work.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t idx) { return x(idx, f) <= best_threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - work.begin());
  if (mid == begin || mid == end) return leaf();
  tally.rows_partitioned = n;

  // Keep every column's range partitioned in lockstep with `work`. The
  // partition is stable, so each child's range stays in (value, row) order
  // — exactly what a fresh per-node sort would produce. Children that are
  // leaves by depth or size never read their ranges.
  const bool children_may_split =
      depth + 1 < params_.max_depth && (mid - begin >= 2 || end - mid >= 2);
  if (exact.root != nullptr && children_may_split) {
    exact.segments.mark_left(f, begin, end, best_threshold,
                             exact.go_left.data());
    exact.segments.partition(begin, end, exact.go_left.data());
  }

  tree.nodes.emplace_back();
  const auto self = static_cast<std::int32_t>(tree.nodes.size() - 1);
  tree.nodes[self].feature = best_feature;
  tree.nodes[self].threshold = best_threshold;
  const std::int32_t left =
      build_node(tree, x, grad, hess, work, begin, mid, depth + 1, cols,
                 presorted, exact);
  const std::int32_t right =
      build_node(tree, x, grad, hess, work, mid, end, depth + 1, cols,
                 presorted, exact);
  tree.nodes[self].left = left;
  tree.nodes[self].right = right;
  return self;
}

GradientBoosting::BoostTree GradientBoosting::fit_tree(
    const Matrix& x, std::span<const double> grad,
    std::span<const double> hess, std::span<const std::size_t> rows,
    std::span<const std::size_t> cols, const SortedColumns* presorted,
    ExactScan& exact) const {
  BoostTree tree;
  std::vector<std::size_t> work(rows.begin(), rows.end());
  if (exact.root != nullptr) exact.segments = *exact.root;
  build_node(tree, x, grad, hess, work, 0, work.size(), 0, cols, presorted,
             exact);
  return tree;
}

void GradientBoosting::fit(const Matrix& x, const Matrix& y) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x.rows() >= 1, "need at least one training row");
  obs::Span span("ml.gbt.fit");
  VARPRED_OBS_COUNT("ml.gbt.fits", 1);
  VARPRED_OBS_COUNT("ml.gbt.rounds_trained", params_.n_rounds * y.cols());
  const std::size_t n = x.rows();
  const std::size_t n_outputs = y.cols();
  ensembles_.assign(n_outputs, Ensemble{});

  // With subsample == 1 every tree trains on the same rows, so the
  // per-column sorted orders are shared by every node of every tree of every
  // output ensemble (exact, just faster). A caller-provided artifact (see
  // set_presorted) skips even that one dataset-level sort — the evaluator
  // builds it once per corpus and shares it across all folds.
  // Take the hint eagerly: it applies to this fit only, even when the fit
  // fails validation below.
  const std::shared_ptr<const SortedColumns> hint = std::move(presorted_hint_);
  presorted_hint_.reset();

  const bool share_rows = params_.subsample >= 1.0;
  std::shared_ptr<const SortedColumns> presorted;
  if (share_rows) {
    if (hint != nullptr) {
      VARPRED_CHECK_ARG(hint->cols() == x.cols() &&
                            hint->row_count() == x.rows(),
                        "presorted artifact does not match training matrix");
      presorted = hint;
      VARPRED_OBS_COUNT("ml.gbt.presort_reused", 1);
    } else {
      presorted =
          std::make_shared<const SortedColumns>(SortedColumns::build(x));
    }
  }

  const auto n_cols = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             params_.colsample * static_cast<double>(x.cols()))));
  const auto n_rows = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(
             params_.subsample * static_cast<double>(n))));
  VARPRED_CHECK_ARG(n <= std::numeric_limits<std::uint32_t>::max(),
                    "too many rows for 32-bit row ids");

  // When every tree also sees every column, maintain the column orders as
  // node-partitioned segments: scans touch only the node's own rows
  // instead of filtering the full dataset order at every node. The values
  // are gathered once per fit; each round copies this root state.
  ColumnSegments root_segments;
  const bool segment_mode = share_rows && n_cols == x.cols();
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  if (segment_mode) root_segments.assign(x, *presorted, all_rows);

  parallel_for(n_outputs, [&](std::size_t out) {
    Rng rng(seed_combine(params_.seed, out));
    Ensemble& ens = ensembles_[out];

    // Base score: mean of this output.
    double base = 0.0;
    for (std::size_t r = 0; r < n; ++r) base += y(r, out);
    base /= static_cast<double>(n);
    ens.base_score = base;

    std::vector<double> pred(n, base);
    std::vector<double> grad(n, 0.0);
    const std::vector<double> hess(n, 1.0);  // squared loss
    ens.trees.reserve(params_.n_rounds);

    std::vector<std::size_t> all_cols(x.cols());
    std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});

    ExactScan exact;
    if (segment_mode) {
      exact.root = &root_segments;
      exact.go_left.assign(n, 0);
    } else if (share_rows) {
      exact.in_node.assign(n, 0);
    }

    for (std::size_t round = 0; round < params_.n_rounds; ++round) {
      for (std::size_t r = 0; r < n; ++r) grad[r] = pred[r] - y(r, out);

      // Column subsample (per tree) and row subsample (without replacement).
      std::vector<std::size_t> cols = all_cols;
      if (n_cols < cols.size()) {
        for (std::size_t i = 0; i < n_cols; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng.uniform_index(cols.size() - i));
          std::swap(cols[i], cols[j]);
        }
        cols.resize(n_cols);
      }
      std::vector<std::size_t> rows = all_rows;
      if (n_rows < n) {
        for (std::size_t i = 0; i < n_rows; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng.uniform_index(rows.size() - i));
          std::swap(rows[i], rows[j]);
        }
        rows.resize(n_rows);
        std::sort(rows.begin(), rows.end());
      }

      BoostTree tree = fit_tree(x, grad, hess, rows, cols, presorted.get(), exact);
      for (std::size_t r = 0; r < n; ++r) {
        pred[r] += params_.learning_rate * tree.predict_one(x.row(r));
      }
      ens.trees.push_back(std::move(tree));
    }
  });
}

std::vector<double> GradientBoosting::predict(
    std::span<const double> row) const {
  VARPRED_CHECK(trained(), "predict before fit");
  std::vector<double> out(ensembles_.size(), 0.0);
  for (std::size_t c = 0; c < ensembles_.size(); ++c) {
    double acc = ensembles_[c].base_score;
    for (const auto& tree : ensembles_[c].trees) {
      acc += params_.learning_rate * tree.predict_one(row);
    }
    out[c] = acc;
  }
  return out;
}

std::unique_ptr<Regressor> GradientBoosting::clone() const {
  return std::make_unique<GradientBoosting>(*this);
}

}  // namespace varpred::ml
