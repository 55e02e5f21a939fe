// Named semirings for SpMSV. The paper casts one BFS level as a multiply
// on a (select, max) semiring (§3.2). A struct packages the (multiply,
// combine) pair so call sites say what they mean instead of re-deriving
// lambdas.
//
//   auto y = spmsv<vid_t>(a, x, BfsParentSemiring{col_base}.multiply(),
//                         BfsParentSemiring::combine(), ...);
#pragma once

#include <algorithm>

#include "util/types.hpp"

namespace dbfs::sparse {

/// The paper's BFS semiring: the multiply "selects" the contributing
/// frontier vertex (the candidate parent = global column id), the
/// combine keeps the maximum — any single parent is valid, max makes the
/// result deterministic.
struct BfsParentSemiring {
  vid_t col_base = 0;  ///< global id of the block's first column

  auto multiply() const {
    const vid_t base = col_base;
    return [base](vid_t /*row*/, vid_t col, vid_t /*xval*/) {
      return base + col;
    };
  }

  static auto combine() {
    return [](vid_t a, vid_t b) { return std::max(a, b); };
  }
};

}  // namespace dbfs::sparse
