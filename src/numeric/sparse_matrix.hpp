// Sparse square matrix tailored to MNA assembly: the sparsity pattern is
// fixed once (device stamps register their positions), then values are
// rewritten every Newton iteration through cached entry handles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace vls {

class SparseMatrix {
 public:
  explicit SparseMatrix(size_t n = 0) : n_(n) {}

  size_t size() const { return n_; }
  size_t nonZeros() const { return values_.size(); }

  /// Register (or find) the entry at (row, col) and return a stable
  /// handle usable with addAt()/setAt(). Safe to call repeatedly.
  /// Stability guarantee: handles are never invalidated — the pattern
  /// is append-only, so a handle resolved once (e.g. into an assembly
  /// tape) stays valid even as later stamps grow the pattern.
  size_t entryHandle(size_t row, size_t col);

  /// Accumulate into an entry via its handle.
  void addAt(size_t handle, double value) { values_[handle] += value; }
  void setAt(size_t handle, double value) { values_[handle] = value; }
  double at(size_t handle) const { return values_[handle]; }
  /// Value array indexed by handle (assembly scatters write it).
  double* values() { return values_.data(); }

  /// Accumulate by coordinates (slow path; creates the entry if new).
  void add(size_t row, size_t col, double value) { addAt(entryHandle(row, col), value); }

  /// Zero all values, keep the pattern.
  void clearValues();

  /// Entry coordinate lookup for iteration.
  struct Entry {
    size_t row;
    size_t col;
  };
  const std::vector<Entry>& entries() const { return coords_; }
  double value(size_t handle) const { return values_[handle]; }

  /// y = A * x (for residual checks and tests).
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// Dense copy (tests and small-system fallback solves).
  std::vector<std::vector<double>> toDense() const;

 private:
  size_t n_;
  std::vector<Entry> coords_;
  std::vector<double> values_;
  std::unordered_map<uint64_t, size_t> index_;  // (row<<32|col) -> handle
};

}  // namespace vls
