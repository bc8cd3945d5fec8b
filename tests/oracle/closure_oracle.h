#ifndef RAV_TESTS_ORACLE_CLOSURE_ORACLE_H_
#define RAV_TESTS_ORACLE_CLOSURE_ORACLE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "automata/lasso.h"
#include "era/extended_automaton.h"
#include "ra/control.h"

namespace rav::oracle {

// The reference ~_w closure the production kernel (ConstraintClosure,
// era/constraint_graph.h) is checked against. It re-derives every
// position's operations from the Type objects (the last position's
// x̄-restriction recomputed with RestrictToX), restarts each constraint's
// DFA at every start position — O(window² · |Σ|) — and canonicalizes with
// a general union-find and a comparison sort. Test-only; it shares no
// code with the kernel beyond the automaton and alphabet it reads.
//
// The accessors mirror ConstraintClosure's, so differential tests compare
// the two observable by observable.
class ReferenceClosure {
 public:
  size_t window() const { return window_; }
  int num_nodes() const { return static_cast<int>(class_of_node_.size()); }
  bool consistent() const { return consistent_; }
  int num_classes() const { return num_classes_; }
  int ClassOf(int node) const { return class_of_node_[node]; }
  bool ClassInAdom(int class_id) const { return class_in_adom_[class_id]; }
  int NumAdomClasses() const;
  const std::vector<std::pair<int, int>>& InequalityEdges() const {
    return ineq_edges_;
  }

 private:
  friend ReferenceClosure ReferenceConstraintClosure(
      const ExtendedAutomaton&, const ControlAlphabet&, const LassoWord&,
      size_t);

  size_t window_ = 0;
  bool consistent_ = true;
  int num_classes_ = 0;
  std::vector<int> class_of_node_;
  std::vector<bool> class_in_adom_;
  std::vector<std::pair<int, int>> ineq_edges_;
};

// The closure of the first `window` positions of `word`.
ReferenceClosure ReferenceConstraintClosure(const ExtendedAutomaton& era,
                                            const ControlAlphabet& alphabet,
                                            const LassoWord& word,
                                            size_t window);

}  // namespace rav::oracle

#endif  // RAV_TESTS_ORACLE_CLOSURE_ORACLE_H_
