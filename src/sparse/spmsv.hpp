// Sparse matrix – sparse vector multiplication (SpMSV) over a generic
// semiring: the computational core of one 2D BFS level (paper §3.2):
//
//     y = A ⊗ x,  y(r) = combine over { multiply(r, c, x(c)) : A(r,c)≠0,
//                                       c ∈ indices(x) }
//
// Two union-forming back ends, per §4.2:
//   * SPA  — dense accumulator; fast at low concurrency, O(dim) memory.
//   * Heap — multiway merge of the selected columns; O(nnz(x)) memory,
//            an extra log factor of compute.
// The polyalgorithm (kAuto) picks the heap when the selected columns are
// few relative to the output dimension — the regime corresponding to the
// paper's >10K-core crossover (Fig 3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sparse/dcsc_matrix.hpp"
#include "sparse/merge.hpp"
#include "sparse/spa.hpp"
#include "sparse/sparse_vector.hpp"
#include "util/types.hpp"

namespace dbfs::sparse {

enum class SpmsvBackend { kAuto, kSpa, kHeap };

const char* to_string(SpmsvBackend backend);

struct SpmsvStats {
  eid_t flops = 0;          ///< nonzeros touched (multiply invocations)
  vid_t output_nnz = 0;
  SpmsvBackend used = SpmsvBackend::kAuto;  ///< back end actually run
};

/// Polyalgorithm decision. `selected_nnz` is the total nonzeros in the
/// columns indexed by x (= flops); `dim` is the output dimension.
SpmsvBackend choose_backend(eid_t selected_nnz, vid_t dim);

/// Generic SpMSV over `windows` row windows of one block: the hybrid
/// code's per-thread split of a rank's block (§4.1, Fig 2), run one
/// window after another without copying the block. Window w covers rows
/// [w·h, w·h + h) with h = max(1, nrows / windows); the last window takes
/// the rest (none when nrows < windows). Each selected column is looked
/// up once and cut at the window boundaries as the windows ascend. Each
/// window then runs as its own multiply: it picks its back end from its
/// own flops and row count, and its SPA is sized to it and indexed from
/// its first row. The outputs concatenate into y over all of a's rows.
///   Multiply: T mul(vid_t row, vid_t col, const T& xval)  (row of a)
///   Combine:  T comb(T a, T b)  (associative, commutative)
/// `workspace` is required for the SPA back end (and for kAuto); it is
/// resized if smaller than a window. `stats` is empty or holds one entry
/// per window.
template <typename T, typename Multiply, typename Combine>
SparseVector<T> spmsv_windows(const DcscMatrix& a, const SparseVector<T>& x,
                              int windows, Multiply mul, Combine comb,
                              SpmsvBackend backend, Spa<T>* workspace,
                              std::span<SpmsvStats> stats) {
  if (windows < 1 ||
      (!stats.empty() && stats.size() != static_cast<std::size_t>(windows))) {
    throw std::invalid_argument("spmsv: windows < 1 or stats not per window");
  }
  // `rest` holds, in x's order, the rows of each selected column that no
  // window has taken yet.
  std::vector<std::span<const vid_t>> rest;
  std::vector<const SvEntry<T>*> rest_x;
  rest.reserve(static_cast<std::size_t>(x.nnz()));
  rest_x.reserve(static_cast<std::size_t>(x.nnz()));
  for (const SvEntry<T>& e : x.entries()) {
    const auto rows = a.column(e.index);
    if (rows.empty()) continue;
    rest.push_back(rows);
    rest_x.push_back(&e);
  }

  const vid_t height = std::max<vid_t>(1, a.nrows() / windows);
  std::vector<std::span<const vid_t>> cut;
  std::vector<const SvEntry<T>*> cut_x;
  std::vector<SvEntry<T>> out;
  for (int w = 0; w < windows; ++w) {
    const vid_t base = static_cast<vid_t>(w) * height;
    const bool last = w == windows - 1;
    const vid_t rows = last ? std::max<vid_t>(a.nrows() - base, 0) : height;
    // The last window takes what is left. An earlier one cuts its rows
    // off the front of each remaining column and keeps the non-empty
    // tails for the windows after it.
    if (!last) {
      cut.clear();
      cut_x.clear();
      std::size_t kept = 0;
      for (std::size_t k = 0; k < rest.size(); ++k) {
        const std::span<const vid_t> col = rest[k];
        std::size_t in = 0;
        while (in < col.size() && col[in] < base + rows) ++in;
        if (in > 0) {
          cut.push_back(col.first(in));
          cut_x.push_back(rest_x[k]);
        }
        if (in < col.size()) {
          rest[kept] = col.subspan(in);
          rest_x[kept++] = rest_x[k];
        }
      }
      rest.resize(kept);
      rest_x.resize(kept);
    }
    const auto& columns = last ? rest : cut;
    const auto& col_x = last ? rest_x : cut_x;
    eid_t flops = 0;
    for (const auto& col : columns) flops += static_cast<eid_t>(col.size());

    SpmsvBackend used = backend;
    if (used == SpmsvBackend::kAuto) used = choose_backend(flops, rows);
    if (used == SpmsvBackend::kSpa && workspace == nullptr) {
      used = SpmsvBackend::kHeap;  // no dense workspace available
    }

    SparseVector<T> y;
    if (used == SpmsvBackend::kSpa) {
      if (workspace->dim() < rows) workspace->resize(rows);
      for (std::size_t k = 0; k < columns.size(); ++k) {
        const SvEntry<T>& xe = *col_x[k];
        for (vid_t row : columns[k]) {
          workspace->accumulate(row - base, mul(row, xe.index, xe.value),
                                comb);
        }
      }
      y = workspace->extract_and_clear();
      if (base != 0) {
        for (SvEntry<T>& e : y.entries()) e.index += base;
      }
    } else {
      y = multiway_merge<T>(
          a.nrows(), columns,
          [&](std::uint32_t run, vid_t row) {
            const SvEntry<T>& xe = *col_x[run];
            return mul(row, xe.index, xe.value);
          },
          comb);
    }

    if (!stats.empty()) {
      stats[static_cast<std::size_t>(w)] = SpmsvStats{flops, y.nnz(), used};
    }
    if (out.empty()) {
      out = std::move(y.entries());
    } else {
      out.insert(out.end(), y.entries().begin(), y.entries().end());
    }
  }
  return SparseVector<T>::from_sorted(a.nrows(), std::move(out));
}

/// Generic SpMSV: the one-window case of spmsv_windows.
template <typename T, typename Multiply, typename Combine>
SparseVector<T> spmsv(const DcscMatrix& a, const SparseVector<T>& x,
                      Multiply mul, Combine comb,
                      SpmsvBackend backend = SpmsvBackend::kAuto,
                      Spa<T>* workspace = nullptr,
                      SpmsvStats* stats = nullptr) {
  return spmsv_windows<T>(
      a, x, 1, mul, comb, backend, workspace,
      std::span<SpmsvStats>(stats, stats == nullptr ? 0 : 1));
}

/// Transpose product y = Aᵀ ⊗ x over the same semiring, *without* a
/// transposed copy of A: DCSC is column-major, so the only way to apply
/// Aᵀ is to scan every stored column and test each entry's row id against
/// x's support. Work is O(nnz(A) + nzc(A)) per call regardless of nnz(x)
/// — the computational price of the paper's §7 triangular-storage space
/// optimization (quantified in bench/ablation_triangular).
///
///   InSupport: const T* lookup(vid_t row)  — null when x has no entry
///   Multiply:  T mul(vid_t out_col, vid_t in_row, const T& xval)
///   Combine:   T comb(T a, T b)
template <typename T, typename InSupport, typename Multiply,
          typename Combine>
SparseVector<T> spmsv_transpose(const DcscMatrix& a, InSupport lookup,
                                Multiply mul, Combine comb,
                                SpmsvStats* stats = nullptr) {
  SparseVector<T> out{a.ncols()};
  eid_t scanned = 0;
  for (vid_t k = 0; k < a.nzc(); ++k) {
    const vid_t col = a.nonzero_column_id(k);
    bool have = false;
    T acc{};
    for (vid_t row : a.nonzero_column(k)) {
      ++scanned;
      if (const T* xval = lookup(row)) {
        const T candidate = mul(col, row, *xval);
        acc = have ? comb(acc, candidate) : candidate;
        have = true;
      }
    }
    if (have) out.push_back(col, acc);
  }
  if (stats != nullptr) {
    stats->flops = scanned;
    stats->output_nnz = out.nnz();
    stats->used = SpmsvBackend::kHeap;  // scan-based; no SPA involved
  }
  return out;
}

/// Bottom-up BFS step as a transposed SpMSV (Buluç et al. 2017, "the
/// direction-optimizing distributed formulation"): for every stored
/// column the caller still *wants* (an unvisited vertex), scan its
/// entries until one row lies in the input's support, emit that row's
/// value as the column's result, and stop — Beamer's early exit. The
/// scan runs over the stored row order *backwards* (row ids descending),
/// so the first hit is the maximum-row-id hit: the per-block result is
/// the max over the block's rows, making the combined cross-block result
/// (max again) independent of how the matrix is partitioned — the same
/// partition-independence the top-down (select, max) combine has, which
/// keeps parents bit-identical across grid shapes and shrink recoveries.
///
/// stats->flops counts entries actually probed (early exit included):
/// the bottom-up edge-examination count the direction heuristic trades
/// against the top-down flops.
///
///   ColumnSelect: bool want(vid_t col)   — false once the vertex is done
///   InSupport:    const T* lookup(vid_t row) — null when x has no entry
///   Multiply:     T mul(vid_t out_col, vid_t in_row, const T& xval)
template <typename T, typename ColumnSelect, typename InSupport,
          typename Multiply>
SparseVector<T> spmsv_bottom_up(const DcscMatrix& a, ColumnSelect want,
                                InSupport lookup, Multiply mul,
                                SpmsvStats* stats = nullptr) {
  SparseVector<T> out{a.ncols()};
  eid_t scanned = 0;
  for (vid_t k = 0; k < a.nzc(); ++k) {
    const vid_t col = a.nonzero_column_id(k);
    if (!want(col)) continue;
    const auto rows = a.nonzero_column(k);
    for (std::size_t idx = rows.size(); idx > 0; --idx) {
      const vid_t row = rows[idx - 1];
      ++scanned;
      if (const T* xval = lookup(row)) {
        out.push_back(col, mul(col, row, *xval));
        break;  // first (= max-row) hit wins; the rest is never examined
      }
    }
  }
  if (stats != nullptr) {
    stats->flops = scanned;
    stats->output_nnz = out.nnz();
    stats->used = SpmsvBackend::kHeap;  // scan-based; no SPA involved
  }
  return out;
}

}  // namespace dbfs::sparse
