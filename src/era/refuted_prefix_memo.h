#ifndef RAV_ERA_REFUTED_PREFIX_MEMO_H_
#define RAV_ERA_REFUTED_PREFIX_MEMO_H_

#include <cstddef>
#include <vector>

#include "automata/lasso.h"
#include "base/governor.h"
#include "era/constraint_graph.h"
#include "era/extended_automaton.h"
#include "ra/control.h"

namespace rav {

// A search worker's memo of the last finite prefix it refuted: the
// shortest prefix of a candidate's ω-word whose constraint closure is
// inconsistent.
//
// Why a prefix refutes every word that starts with it: the closure over
// the first n positions of an ω-word reads only its first n symbols, and
// every equality and inequality it derives is also derived over any
// wider window (the types of positions < n - 1 are the same, the last
// position's x̄-restricted type is contained in its full type, and a
// constraint factor inside the window stays inside a wider one). So an
// inconsistency on n positions persists on every window of at least n
// positions of every ω-word beginning with those n symbols. A candidate
// whose first L symbols equal the memo, with L no longer than the window
// its evaluator would have judged, would have been found inconsistent
// there: it is refuted without building a closure. The enumerator
// delivers the lassos of one DFS subtree consecutively, and they all
// share the subtree's path as a prefix, so a worker's consecutive
// candidates hit the memo as long as the refutation stays inside it.
//
// The shortest refuted prefix is found by a search over windows, run
// only once a later candidate could begin with it: Learn records the
// refuted word and bounds, and Refutes settles the bounds the first time
// a candidate shares more symbols with the refuted word than the lower
// bound. A candidate sharing fewer cannot match whatever the answer, so
// a refutation followed only by such candidates costs no extra closure.
// Which candidates match is exactly as if every refutation were settled
// at once.
//
// Shared by every closure-based evaluator (emptiness and LTL-FO in
// SearchConsistentLasso, the LR-boundedness sampler in EstimateLrBound).
// One per worker, inside LassoWorkerCounters; not thread-safe.
class RefutedPrefixMemo {
 public:
  // True iff the last refuted word's shortest refuted prefix is no
  // longer than `judged_window` and `word`'s ω-word begins with it:
  // `word`'s closure over judged_window positions is then inconsistent.
  // Counts the refutation. Settles the shortest prefix first if `word`
  // could begin with it: its first probe is the refuted closure's
  // ConflictWindowLowerBound, below which every window is consistent and
  // which is usually the answer, then bisection — at most
  // 1 + ⌈log₂(refuted window - consistent window)⌉ closures of `era` over
  // the refuted word, each built on `scratch` and charged to `governor`
  // while it lives. A governor trip stops the search; the shortest
  // refuted window found so far is still a refuted prefix.
  bool Refutes(const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
               const LassoWord& word, size_t judged_window,
               ClosureScratch* scratch, const ExecutionGovernor* governor);

  // Learns from a refutation: `refuted` is `word`'s inconsistent closure
  // over refuted.window() positions, and the closure over
  // `consistent_window` positions (0 when no shorter closure was built)
  // is consistent. Replaces the memo; builds nothing. Never call it for a
  // candidate rejected for any reason other than inconsistency.
  void Learn(const LassoWord& word, size_t consistent_window,
             const ConstraintClosure& refuted);

  // Candidates refuted by the memo, and closures built to settle it.
  size_t refutations() const { return refutations_; }
  size_t learn_closures() const { return learn_closures_; }
  // The refuted word's first symbols: its shortest refuted prefix once
  // settled, before that a refuted prefix (empty before the first Learn).
  const std::vector<int>& prefix() const { return refuted_.prefix; }

 private:
  void Settle(const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
              ClosureScratch* scratch, const ExecutionGovernor* governor);

  // The last refuted word's first hi_ symbols, as a cycle-free lasso.
  LassoWord refuted_;
  // Its closure over lo_ positions is consistent (or lo_ is 0), over hi_
  // positions inconsistent; settled when hi_ == lo_ + 1. hi_ == 0 means
  // nothing was learnt yet.
  size_t lo_ = 0;
  size_t hi_ = 0;
  size_t refutations_ = 0;
  size_t learn_closures_ = 0;
};

}  // namespace rav

#endif  // RAV_ERA_REFUTED_PREFIX_MEMO_H_
