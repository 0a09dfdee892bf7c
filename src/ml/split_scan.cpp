#include "ml/split_scan.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace varpred::ml {

void ColumnSegments::assign(const Matrix& x, const SortedColumns& orders,
                            std::span<const std::size_t> sample) {
  VARPRED_CHECK_ARG(orders.cols() == x.cols() &&
                        orders.row_count() == x.rows(),
                    "presorted artifact does not match training matrix");
  VARPRED_CHECK_ARG(x.rows() <= std::numeric_limits<std::uint32_t>::max(),
                    "too many rows for 32-bit column segments");
  std::vector<std::uint32_t> count(x.rows(), 0);
  for (const std::size_t r : sample) {
    VARPRED_CHECK_ARG(r < x.rows(), "sample row index out of range");
    ++count[r];
  }
  n_ = sample.size();
  cols_ = x.cols();
  // Two slack entries: the filter below writes each row twice ahead of
  // its cursor, which may run past the last column.
  rows_.resize(cols_ * n_ + 2);
  values_.resize(cols_ * n_ + 2);
  spill_rows_.resize(n_);
  spill_values_.resize(n_);
  for (std::size_t f = 0; f < cols_; ++f) {
    std::uint32_t* rows = rows_.data() + f * n_;
    double* values = values_.data() + f * n_;
    std::size_t w = 0;
    for (const std::size_t r : orders.order[f]) {
      // An order that is not a permutation of x's rows could overrun; in a
      // permutation the counts seen so far never exceed the sample size.
      VARPRED_CHECK_ARG(r < x.rows(),
                        "presorted artifact is not a dataset-level order");
      const std::uint32_t c = count[r];
      VARPRED_CHECK_ARG(w + c <= n_,
                        "presorted artifact is not a dataset-level order");
      // Bootstrap multiplicities are mostly 0, 1 or 2: write two copies
      // unconditionally and advance by min(count, 2), so only rarer
      // counts branch. Writes past this column land in the next one's
      // range (or the slack) before it is filled.
      const double v = x(r, f);
      const auto row = static_cast<std::uint32_t>(r);
      rows[w] = row;
      values[w] = v;
      rows[w + 1] = row;
      values[w + 1] = v;
      w += std::min<std::uint32_t>(c, 2);
      for (std::uint32_t k = 2; k < c; ++k) {
        rows[w] = row;
        values[w] = v;
        ++w;
      }
    }
    VARPRED_CHECK_ARG(w == n_,
                      "presorted artifact is not a dataset-level order");
  }
}

void ColumnSegments::mark_left(std::size_t f, std::size_t begin,
                               std::size_t end, double threshold,
                               std::uint8_t* go_left) const {
  const std::uint32_t* rows = this->rows(f);
  const double* values = this->values(f);
  for (std::size_t i = begin; i < end; ++i) {
    go_left[rows[i]] = values[i] <= threshold ? 1 : 0;
  }
}

void ColumnSegments::partition(std::size_t begin, std::size_t end,
                               const std::uint8_t* go_left) {
  std::uint32_t* spill_rows = spill_rows_.data();
  double* spill_values = spill_values_.data();
  for (std::size_t f = 0; f < cols_; ++f) {
    std::uint32_t* rows = rows_.data() + f * n_;
    double* values = values_.data() + f * n_;
    // The left cursor never passes the read cursor, so writing left in
    // place is safe; right-going entries collect in the spill buffers.
    std::size_t left = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t row = rows[i];
      const double value = values[i];
      const std::size_t bit = go_left[row];
      rows[left] = row;
      values[left] = value;
      spill_rows[right] = row;
      spill_values[right] = value;
      left += bit;
      right += 1 - bit;
    }
    std::copy(spill_rows, spill_rows + right, rows + left);
    std::copy(spill_values, spill_values + right, values + left);
  }
}

void NodeColumn::sort(const Matrix& x, std::size_t f,
                      std::span<const std::size_t> rows) {
  keyed_.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    keyed_[i] = {x(rows[i], f), static_cast<std::uint32_t>(rows[i])};
  }
  std::sort(keyed_.begin(), keyed_.end());  // (value, row) order
  rows_.resize(keyed_.size());
  values_.resize(keyed_.size());
  for (std::size_t i = 0; i < keyed_.size(); ++i) {
    values_[i] = keyed_[i].first;
    rows_[i] = keyed_[i].second;
  }
}

void NodeColumn::filter(const Matrix& x, std::size_t f,
                        std::span<const std::size_t> order,
                        const char* in_node) {
  rows_.clear();
  values_.clear();
  for (const std::size_t row : order) {
    if (in_node[row] == 0) continue;
    rows_.push_back(static_cast<std::uint32_t>(row));
    values_.push_back(x(row, f));
  }
}

}  // namespace varpred::ml
