#include "era/refuted_prefix_memo.h"

#include <algorithm>

namespace rav {

namespace {

// Length of the longest common prefix of `word`'s ω-word and `symbols`.
size_t CommonPrefix(const LassoWord& word, const std::vector<int>& symbols) {
  const size_t head = std::min(symbols.size(), word.prefix.size());
  size_t n = static_cast<size_t>(
      std::mismatch(symbols.begin(), symbols.begin() + head,
                    word.prefix.begin())
          .first -
      symbols.begin());
  if (n < head || word.cycle.empty()) return n;
  // The rest against the cycle, repeated.
  for (size_t c = 0; n < symbols.size() && symbols[n] == word.cycle[c]; ++n) {
    if (++c == word.cycle.size()) c = 0;
  }
  return n;
}

}  // namespace

bool RefutedPrefixMemo::Refutes(const ExtendedAutomaton& era,
                                const ControlAlphabet& alphabet,
                                const LassoWord& word, size_t judged_window,
                                ClosureScratch* scratch,
                                const ExecutionGovernor* governor) {
  if (hi_ == 0) return false;
  // The shortest refuted prefix is longer than lo_: a word sharing no
  // more than lo_ symbols with the refuted one cannot begin with it.
  const size_t common = CommonPrefix(word, refuted_.prefix);
  if (common <= lo_) return false;
  if (hi_ - lo_ > 1) Settle(era, alphabet, scratch, governor);
  if (hi_ > common || hi_ > judged_window) return false;
  ++refutations_;
  return true;
}

void RefutedPrefixMemo::Learn(const LassoWord& word, size_t consistent_window,
                              const ConstraintClosure& refuted) {
  hi_ = refuted.window();
  // The refuted closure's conflicts bound the answer from below for free.
  const size_t lower = refuted.ConflictWindowLowerBound();
  lo_ = std::max(consistent_window, lower > 0 ? lower - 1 : 0);
  refuted_.prefix.resize(hi_);
  for (size_t i = 0; i < hi_; ++i) refuted_.prefix[i] = word.SymbolAt(i);
}

void RefutedPrefixMemo::Settle(const ExtendedAutomaton& era,
                               const ControlAlphabet& alphabet,
                               ClosureScratch* scratch,
                               const ExecutionGovernor* governor) {
  // Invariant: the closure over lo_ positions is consistent (or lo_ is
  // 0), the one over hi_ positions inconsistent. The first probe is the
  // lower bound itself, the usual answer; then plain bisection.
  size_t mid = lo_ + 1;
  while (hi_ - lo_ > 1) {
    if (GovernorCheck(governor) != GovernorTrip::kNone) return;
    ++learn_closures_;
    ConstraintClosure closure(era, alphabet, refuted_, mid, scratch);
    ScopedMemoryCharge charge(governor, closure.ApproxBytes());
    (closure.consistent() ? lo_ : hi_) = mid;
    mid = lo_ + (hi_ - lo_) / 2;
  }
  refuted_.prefix.resize(hi_);
}

}  // namespace rav
