#ifndef RAV_TESTS_ORACLE_COVER_ORACLE_H_
#define RAV_TESTS_ORACLE_COVER_ORACLE_H_

#include <utility>
#include <vector>

#include "era/constraint_graph.h"

namespace rav::oracle {

// The reference G^w_h cover computation the production sweep
// (MaxCutVertexCoverOfClosure, projection/lr_bounded.h) is checked
// against: for every cut h it rebuilds G^w_h from scratch — classes
// classified left / right / straddling, compacted per side — and runs a
// fresh Kuhn matcher, O(window · (E log C + L · R + L · E)) per closure.
// Test-only.

// Minimum vertex cover of a bipartite graph given as edges between left
// ids [0, n_left) and right ids [0, n_right), via maximum matching
// (König).
int BipartiteMinVertexCover(int n_left, int n_right,
                            const std::vector<std::pair<int, int>>& edges);

// Maximum over cuts h of the minimum vertex cover of G^w_h on `closure`;
// -1 if the closure is inconsistent.
int MaxCutVertexCoverOfClosure(const ConstraintClosure& closure);

}  // namespace rav::oracle

#endif  // RAV_TESTS_ORACLE_COVER_ORACLE_H_
