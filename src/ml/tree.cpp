#include "ml/tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"

namespace varpred::ml {
namespace {

// Node-constant inputs and running best of one node's exact split search.
struct NodeSearch {
  const double* y = nullptr;  // row-major targets, k per row
  std::size_t k = 0;
  const double* total_sum = nullptr;
  double total_sq = 0.0;
  std::size_t n = 0;
  std::size_t min_leaf = 1;
  double best_sse = 0.0;
  std::int32_t best_feature = -1;
  double best_threshold = 0.0;
};

// Scans one feature's node entries in (value, row) order and keeps the
// lowest-SSE split. W > 0 is the compile-time output width, with the
// running sums in a local array the compiler can keep in registers (a heap
// buffer could alias y, forcing a reload per row); W == 0 takes s.k outputs
// and runs its sums in the caller's `wide` buffer. Every candidate's SSE is
// computed with the same operations in the same order at any W.
template <std::size_t W>
void scan_column(NodeSearch& s, std::size_t f, const std::uint32_t* rows,
                 const double* values, double* wide) {
  const std::size_t k = W > 0 ? W : s.k;
  std::array<double, (W > 0 ? W : 1)> local_left{};
  std::array<double, (W > 0 ? W : 1)> local_total{};
  double* left = W > 0 ? local_left.data() : wide;
  const double* total = s.total_sum;
  if constexpr (W > 0) {
    std::copy(total, total + W, local_total.begin());
    total = local_total.data();
  } else {
    std::fill(left, left + k, 0.0);
  }
  const double total_sq = s.total_sq;
  const std::size_t n = s.n;
  // Row counts convert to doubles exactly (they are far below 2^53).
  const double count = static_cast<double>(n);
  double best_sse = s.best_sse;
  bool improved = false;
  double best_threshold = 0.0;
  // n_left = i + 1 runs up to n - min_leaf, so n_right >= min_leaf always.
  for (std::size_t i = 0; i + s.min_leaf < n; ++i) {
    const double* yr = s.y + static_cast<std::size_t>(rows[i]) * k;
    for (std::size_t c = 0; c < k; ++c) left[c] += yr[c];
    if (i + 1 < s.min_leaf) continue;
    if (values[i] == values[i + 1]) continue;  // no split between equals
    const double n_left = static_cast<double>(static_cast<std::int64_t>(i + 1));
    const double n_right = count - n_left;
    double sse = total_sq;  // left_sq + right_sq == total_sq always
    double left_penalty = 0.0;
    double right_penalty = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      left_penalty += left[c] * left[c];
      const double rs = total[c] - left[c];
      right_penalty += rs * rs;
    }
    const auto [left_term, right_term] =
        divide_pair(left_penalty, n_left, right_penalty, n_right);
    sse -= left_term + right_term;
    if (sse < best_sse) {
      best_sse = sse;
      improved = true;
      best_threshold = 0.5 * (values[i] + values[i + 1]);
    }
  }
  if (improved) {
    s.best_sse = best_sse;
    s.best_feature = static_cast<std::int32_t>(f);
    s.best_threshold = best_threshold;
  }
}

// One node's split-search work, added to the ml.tree.* counters once when
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
    VARPRED_OBS_COUNT("ml.tree.nodes", 1);
    VARPRED_OBS_COUNT("ml.tree.feature_scans", feature_scans);
    VARPRED_OBS_COUNT("ml.tree.rows_scanned", rows_scanned);
    VARPRED_OBS_COUNT("ml.tree.rows_partitioned", rows_partitioned);
  }
};

using ScanFn = void (*)(NodeSearch&, std::size_t, const std::uint32_t*,
                        const double*, double*);

// The paper's representations are 4 (moments, Pearson), 16 (quantiles) or
// 40 (histogram) wide; any other width takes the runtime-width kernel.
ScanFn scan_kernel(std::size_t k) {
  switch (k) {
    case 4:
      return &scan_column<4>;
    case 16:
      return &scan_column<16>;
    case 40:
      return &scan_column<40>;
    default:
      return &scan_column<0>;
  }
}

}  // namespace

RegressionTree::RegressionTree(TreeParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.max_depth >= 1, "max_depth must be >= 1");
  VARPRED_CHECK_ARG(params_.min_samples_leaf >= 1,
                    "min_samples_leaf must be >= 1");
}

void RegressionTree::fit(const Matrix& x, const Matrix& y) {
  std::vector<std::size_t> all(x.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  // A dataset-level artifact over x is exactly the all-rows sample order.
  const std::shared_ptr<const SortedColumns> hint = std::move(presorted_hint_);
  presorted_hint_.reset();
  fit_rows(x, y, all, hint.get());
}

void RegressionTree::set_presorted(std::shared_ptr<const SortedColumns> cols) {
  presorted_hint_ = std::move(cols);
}

void RegressionTree::fit_rows(const Matrix& x, const Matrix& y,
                              std::span<const std::size_t> indices,
                              const SortedColumns* presorted) {
  VARPRED_CHECK_ARG(x.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(!indices.empty(), "cannot fit on zero rows");
  nodes_.clear();
  leaf_values_.clear();
  n_outputs_ = y.cols();
  work_.assign(indices.begin(), indices.end());

  // Column-segment mode needs every split to consider every feature, else
  // the candidate subset would still have to be sorted per node anyway.
  const bool all_features =
      params_.max_features == 0 || params_.max_features >= x.cols();
  use_columns_ = presorted != nullptr && all_features;
  VARPRED_CHECK_ARG(x.rows() <= std::numeric_limits<std::uint32_t>::max(),
                    "too many rows for 32-bit row ids");
  if (use_columns_) {
    segments_.assign(x, *presorted, indices);  // partitioned as it grows
    go_left_.assign(x.rows(), 0);
  }
  scan_left_.assign(n_outputs_, 0.0);

  Rng rng(params_.seed);
  build(x, y, 0, work_.size(), 0, rng);

  segments_ = {};
  node_column_ = {};
  go_left_ = {};
  scan_left_ = {};
  use_columns_ = false;
}

std::int32_t RegressionTree::make_leaf(const Matrix& y, std::size_t begin,
                                       std::size_t end, std::size_t depth) {
  const std::int32_t offset = static_cast<std::int32_t>(leaf_values_.size());
  leaf_values_.resize(leaf_values_.size() + n_outputs_, 0.0);
  const double inv = 1.0 / static_cast<double>(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = y.row(work_[i]);
    for (std::size_t c = 0; c < n_outputs_; ++c) {
      leaf_values_[offset + c] += row[c] * inv;
    }
  }
  Node node;
  node.feature = -1;
  node.value_offset = offset;
  node.node_depth = static_cast<std::int32_t>(depth);
  nodes_.push_back(node);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t RegressionTree::build(const Matrix& x, const Matrix& y,
                                   std::size_t begin, std::size_t end,
                                   std::size_t depth, Rng& rng) {
  NodeTally tally;
  const std::size_t n = end - begin;
  if (depth >= params_.max_depth || n < params_.min_samples_split ||
      n < 2 * params_.min_samples_leaf) {
    return make_leaf(y, begin, end, depth);
  }

  // Candidate features: all, or a deterministic random subset.
  const std::size_t n_features = x.cols();
  std::vector<std::size_t> features(n_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t n_candidates = n_features;
  if (params_.max_features > 0 && params_.max_features < n_features) {
    // Fisher-Yates prefix shuffle.
    n_candidates = params_.max_features;
    for (std::size_t i = 0; i < n_candidates; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_index(n_features - i));
      std::swap(features[i], features[j]);
    }
  }

  // Parent statistics: per-output sums and the total sum of squares.
  std::vector<double> total_sum(n_outputs_, 0.0);
  double total_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = y.row(work_[i]);
    for (std::size_t c = 0; c < n_outputs_; ++c) {
      total_sum[c] += row[c];
      total_sq += row[c] * row[c];
    }
  }
  double parent_sse = total_sq;
  for (std::size_t c = 0; c < n_outputs_; ++c) {
    parent_sse -= total_sum[c] * total_sum[c] / static_cast<double>(n);
  }
  if (parent_sse <= 1e-14) {
    return make_leaf(y, begin, end, depth);
  }

  // One kernel over each candidate feature's node entries in (value, row)
  // order — the node's segment range, or a per-node sort.
  NodeSearch search;
  search.y = y.data().data();
  search.k = n_outputs_;
  search.total_sum = total_sum.data();
  search.total_sq = total_sq;
  search.n = n;
  search.min_leaf = params_.min_samples_leaf;
  search.best_sse = parent_sse - 1e-12;
  const ScanFn scan = scan_kernel(n_outputs_);
  const std::span<const std::size_t> node_rows(work_.data() + begin, n);
  for (std::size_t fi = 0; fi < n_candidates; ++fi) {
    const std::size_t f = features[fi];
    const std::uint32_t* rows;
    const double* values;
    if (use_columns_) {
      rows = segments_.rows(f) + begin;
      values = segments_.values(f) + begin;
    } else {
      node_column_.sort(x, f, node_rows);
      rows = node_column_.rows();
      values = node_column_.values();
    }
    if (values[0] == values[n - 1]) continue;  // constant in this node
    ++tally.feature_scans;
    tally.rows_scanned += n;
    scan(search, f, rows, values, scan_left_.data());
  }
  const std::int32_t best_feature = search.best_feature;
  const double best_threshold = search.best_threshold;

  if (best_feature < 0) return make_leaf(y, begin, end, depth);

  // Partition work_[begin, end) around the chosen threshold.
  const auto f = static_cast<std::size_t>(best_feature);
  const auto mid_it = std::partition(
      work_.begin() + static_cast<std::ptrdiff_t>(begin),
      work_.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t idx) { return x(idx, f) <= best_threshold; });
  const auto mid =
      static_cast<std::size_t>(mid_it - work_.begin());
  if (mid == begin || mid == end) {
    return make_leaf(y, begin, end, depth);  // numeric degeneracy guard
  }
  tally.rows_partitioned = n;

  // Keep every column's range partitioned in lockstep with work_. The
  // partition is stable, so each child's range stays in (value, row) order
  // — exactly what a fresh per-node sort would produce. Children that are
  // leaves by size or depth never read their ranges.
  auto may_split = [&](std::size_t rows) {
    return depth + 1 < params_.max_depth &&
           rows >= params_.min_samples_split &&
           rows >= 2 * params_.min_samples_leaf;
  };
  if (use_columns_ && (may_split(mid - begin) || may_split(end - mid))) {
    segments_.mark_left(f, begin, end, best_threshold, go_left_.data());
    segments_.partition(begin, end, go_left_.data());
  }

  // Reserve this node's slot before building children.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  nodes_[self].feature = best_feature;
  nodes_[self].threshold = best_threshold;
  nodes_[self].node_depth = static_cast<std::int32_t>(depth);
  const std::int32_t left = build(x, y, begin, mid, depth + 1, rng);
  const std::int32_t right = build(x, y, mid, end, depth + 1, rng);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

std::vector<double> RegressionTree::predict(
    std::span<const double> row) const {
  VARPRED_CHECK(trained(), "predict before fit");
  std::int32_t idx = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.feature < 0) {
      const auto off = static_cast<std::size_t>(node.value_offset);
      return {leaf_values_.begin() + static_cast<std::ptrdiff_t>(off),
              leaf_values_.begin() +
                  static_cast<std::ptrdiff_t>(off + n_outputs_)};
    }
    VARPRED_CHECK(static_cast<std::size_t>(node.feature) < row.size(),
                  "feature index out of range in predict");
    idx = row[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

std::unique_ptr<Regressor> RegressionTree::clone() const {
  return std::make_unique<RegressionTree>(*this);
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) count += (n.feature < 0);
  return count;
}

std::size_t RegressionTree::depth() const {
  std::size_t d = 0;
  for (const auto& n : nodes_) {
    d = std::max(d, static_cast<std::size_t>(n.node_depth));
  }
  return d;
}

}  // namespace varpred::ml
