#ifndef RAV_AUTOMATA_DFA_H_
#define RAV_AUTOMATA_DFA_H_

#include <utility>
#include <vector>

#include "base/logging.h"

namespace rav {

// Deterministic finite automaton over a dense integer alphabet. Always
// complete: every state has a successor on every symbol. DFAs are the
// compiled form of the paper's global-constraint regular expressions
// (e=ᵢⱼ, e≠ᵢⱼ over the states Q of an automaton).
class Dfa {
 public:
  Dfa(int alphabet_size, int num_states, int initial)
      : alphabet_size_(alphabet_size),
        initial_(initial),
        next_(num_states, std::vector<int>(alphabet_size, 0)),
        accepting_(num_states, false) {
    RAV_CHECK_GE(alphabet_size, 0);
    RAV_CHECK_GT(num_states, 0);
    RAV_CHECK_GE(initial, 0);
    RAV_CHECK_LT(initial, num_states);
  }

  int alphabet_size() const { return alphabet_size_; }
  int num_states() const { return static_cast<int>(next_.size()); }
  int initial() const { return initial_; }

  void SetTransition(int from, int symbol, int to) {
    RAV_CHECK_GE(to, 0);
    RAV_CHECK_LT(to, num_states());
    next_[from][symbol] = to;
  }
  int Next(int state, int symbol) const {
    RAV_CHECK_GE(symbol, 0);
    RAV_CHECK_LT(symbol, alphabet_size_);
    return next_[state][symbol];
  }
  // Unchecked transition row of `state` (`alphabet_size()` entries), for
  // loops that have validated their symbols up front.
  const int* NextRow(int state) const { return next_[state].data(); }

  void SetAccepting(int state, bool accepting = true) {
    accepting_[state] = accepting;
  }
  bool IsAccepting(int state) const { return accepting_[state]; }

  // Runs the DFA on `word` from the initial state.
  int Run(const std::vector<int>& word) const;
  bool Accepts(const std::vector<int>& word) const {
    return accepting_[Run(word)];
  }

  // Language complement (flip accepting; DFA is complete).
  Dfa Complement() const;

  // Product automaton accepting the intersection of the languages.
  Dfa Intersect(const Dfa& other) const;

  // Hopcroft-style (Moore refinement) minimization. The result is the
  // canonical minimal complete DFA of the language (up to state order).
  Dfa Minimize() const;

  // The DFA over [0, alphabet_size) that reads symbol s as this DFA's
  // letter L for each pair (s, L) of `symbol_letters` and every other
  // symbol as `other_letter`: same states, numbering, initial state and
  // accepting set. One row fill per state plus one write per pair;
  // Regex::ToDfa expands its symbol-class DFA with it.
  Dfa ExpandLetters(int alphabet_size,
                    const std::vector<std::pair<int, int>>& symbol_letters,
                    int other_letter) const;

  // True iff the language is empty.
  bool IsEmptyLanguage() const;

  // Per-state coreachability: entry s is true iff an accepting state is
  // reachable from s (including s itself). A run entering a non-coreachable
  // state can never accept again — the constraint-closure sweep uses this
  // to drop dead DFA runs early.
  std::vector<bool> CoreachableStates() const;

  // True iff both DFAs accept the same language (via minimized product
  // difference check).
  bool EquivalentTo(const Dfa& other) const;

 private:
  Dfa(int alphabet_size, int initial, std::vector<std::vector<int>> next,
      std::vector<bool> accepting)
      : alphabet_size_(alphabet_size),
        initial_(initial),
        next_(std::move(next)),
        accepting_(std::move(accepting)) {}

  int alphabet_size_;
  int initial_;
  std::vector<std::vector<int>> next_;
  std::vector<bool> accepting_;
};

}  // namespace rav

#endif  // RAV_AUTOMATA_DFA_H_
