// Multi-output CART regression tree.
//
// Splits minimize the summed squared error across all output columns
// (variance reduction) with the exact presorted split search of
// ml/split_scan.hpp. Used standalone and bagged in RandomForest;
// GradientBoosting grows its own second-order trees over the same
// primitives.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "ml/regressor.hpp"
#include "ml/sorted_columns.hpp"
#include "ml/split_scan.hpp"

namespace varpred::ml {

struct TreeParams {
  std::size_t max_depth = 10;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Number of candidate features per split; 0 means all features.
  std::size_t max_features = 0;
  /// Seed for the per-split feature subsampling (only used when
  /// max_features narrows the candidate set).
  std::uint64_t seed = 1;
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeParams params = {});

  void fit(const Matrix& x, const Matrix& y) override;
  void set_presorted(std::shared_ptr<const SortedColumns> cols) override;

  /// Fits on a subset of rows (bootstrap support for forests). `presorted`,
  /// when given, must be the dataset-level artifact of x
  /// (SortedColumns::build(x); shape is checked). The fit derives the
  /// `indices` sample's columns from it by one counted linear filter —
  /// each sample row once per occurrence, in (feature value, index) order,
  /// as SortedColumns::filtered(indices, /*remap=*/false) lists them. It is
  /// consumed only when every split considers all features (max_features
  /// covers the full column set) and yields byte-identical trees;
  /// otherwise it is ignored.
  void fit_rows(const Matrix& x, const Matrix& y,
                std::span<const std::size_t> indices,
                const SortedColumns* presorted = nullptr);

  std::vector<double> predict(std::span<const double> row) const override;
  std::unique_ptr<Regressor> clone() const override;
  std::string name() const override { return "Tree"; }
  bool trained() const override { return !nodes_.empty(); }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;

  void save(std::ostream& out) const override;
  static RegressionTree load(std::istream& in);

 private:
  struct Node {
    // Internal node: feature/threshold and child indices. Leaf: value offset.
    std::int32_t feature = -1;  // -1 marks a leaf
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t value_offset = -1;  // into leaf_values_ (leaf only)
    std::int32_t node_depth = 0;
  };

  // Recursive builder over an index range [begin, end) of work_.
  std::int32_t build(const Matrix& x, const Matrix& y, std::size_t begin,
                     std::size_t end, std::size_t depth, Rng& rng);
  std::int32_t make_leaf(const Matrix& y, std::size_t begin, std::size_t end,
                         std::size_t depth);

  TreeParams params_;
  std::size_t n_outputs_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> leaf_values_;   // leaf_count * n_outputs
  std::vector<std::size_t> work_;     // index scratch during fit

  // Split-search state during fit (see ml/split_scan.hpp). In
  // column-segment mode (a presorted artifact is supplied and every split
  // considers all features) segments_ holds node [begin, end)'s (row,
  // value) entries of every feature, partitioned in lockstep with work_ at
  // each split via the go_left_ row mask; otherwise node_column_ is sorted
  // per (node, candidate feature). Both feed the same scan kernel.
  ColumnSegments segments_;
  NodeColumn node_column_;
  std::vector<std::uint8_t> go_left_;   // per-row split routing
  std::vector<double> scan_left_;       // running sums, wide targets only
  bool use_columns_ = false;
  std::shared_ptr<const SortedColumns> presorted_hint_;  // next fit() only
};

}  // namespace varpred::ml
