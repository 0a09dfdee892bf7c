// Column storage for the exact presorted split search shared by
// RegressionTree and GradientBoosting.
//
// Both learners find a node's best axis-aligned split by scanning, for each
// candidate feature, the node's rows in (feature value, row index) order.
// The scan kernels (one per learner, in tree.cpp and gbt.cpp) read that
// sequence as two contiguous arrays — row ids and the matching feature
// values — so they never touch the row-major feature matrix. The sequence
// comes from one of two places:
//
//   * ColumnSegments: every feature's whole sample, kept node-partitioned
//     for the life of one tree. Node [begin, end) owns the entries
//     [begin, end) of every column, in (value, row) order; a split
//     stable-partitions each column's range by a per-row go-left byte, so
//     both children inherit sorted ranges and nothing is sorted past the
//     root.
//   * NodeColumn: one feature of one node, built on demand (sorted from the
//     node's rows, or filtered out of a dataset-level order) when the
//     learner does not maintain segments.
//
// Either way the kernel sees the same entries in the same order, so both
// fitting paths evaluate the same candidates with the same floating-point
// operations and build byte-identical trees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/sorted_columns.hpp"

namespace varpred::ml {

/// a0 / b0 and a1 / b1 as one two-lane division where the target has SIMD
/// (one divpd on x86-64 instead of two divsd). Each lane is an IEEE
/// division, so the quotients are bit-identical to the scalar ones. The
/// scan kernels score every candidate with two divisions, which bound
/// their throughput.
inline std::pair<double, double> divide_pair(double a0, double b0, double a1,
                                             double b1) {
  using Pair = double __attribute__((vector_size(16)));
  const Pair q = Pair{a0, a1} / Pair{b0, b1};
  return {q[0], q[1]};
}

/// Node-partitioned (row, value) columns of one training sample.
class ColumnSegments {
 public:
  /// Builds the columns of a training sample from the dataset-level orders
  /// of x (`orders` must be SortedColumns::build(x)). `sample` is any
  /// multiset of x's rows; column f lists each sample row once per
  /// occurrence, in (value, row) order, with its value x(row, f) — the
  /// counted filter SortedColumns::filtered(sample, false) performs, with
  /// the values gathered in the same pass.
  void assign(const Matrix& x, const SortedColumns& orders,
              std::span<const std::size_t> sample);

  const std::uint32_t* rows(std::size_t f) const {
    return rows_.data() + f * n_;
  }
  const double* values(std::size_t f) const { return values_.data() + f * n_; }

  /// go_left[row] = (value <= threshold) for every entry of column f in
  /// [begin, end) — the routing of the node's rows for a split on f.
  void mark_left(std::size_t f, std::size_t begin, std::size_t end,
                 double threshold, std::uint8_t* go_left) const;

  /// Stable two-way partition of [begin, end) in every column: entries
  /// whose row has go_left[row] == 1 first, each side in its old order.
  /// Branchless: every entry is written to both sides and the write
  /// cursors advance by the mask bit.
  void partition(std::size_t begin, std::size_t end,
                 const std::uint8_t* go_left);

 private:
  std::size_t n_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> rows_;  // cols_ x n_, plus assign()'s slack
  std::vector<double> values_;       // cols_ x n_, plus assign()'s slack
  std::vector<std::uint32_t> spill_rows_;
  std::vector<double> spill_values_;
};

/// One feature's (row, value) entries for one node, in (value, row) order:
/// the sequence a ColumnSegments range holds, built on demand.
class NodeColumn {
 public:
  /// Sorts the node's `rows` (duplicates allowed) by (x(row, f), row).
  void sort(const Matrix& x, std::size_t f,
            std::span<const std::size_t> rows);
  /// Keeps the entries of a dataset-level order of feature f whose row is
  /// flagged in `in_node`, in order.
  void filter(const Matrix& x, std::size_t f,
              std::span<const std::size_t> order, const char* in_node);

  const std::uint32_t* rows() const { return rows_.data(); }
  const double* values() const { return values_.data(); }

 private:
  std::vector<std::pair<double, std::uint32_t>> keyed_;
  std::vector<std::uint32_t> rows_;
  std::vector<double> values_;
};

}  // namespace varpred::ml
