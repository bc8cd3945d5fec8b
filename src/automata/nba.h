#ifndef RAV_AUTOMATA_NBA_H_
#define RAV_AUTOMATA_NBA_H_

#include <functional>
#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "automata/lasso.h"
#include "base/logging.h"

namespace rav {

// Why a bounded lasso enumeration ended. Only kExhausted makes a negative
// result ("no enumerated lasso satisfied the caller") definitive; every
// other reason means candidates may exist beyond the point reached.
enum class LassoEnumStop {
  kExhausted = 0,      // full space within the bounds explored, nothing cut
  kLengthClipped = 1,  // some DFS paths were cut at the length bound
  kMaxCount = 2,       // stopped after delivering max_count lassos
  kMaxSteps = 3,       // stopped by the step budget
  kCallbackStopped = 4,  // the callback requested a stop (witness found)
};

// Stable human-readable name ("exhausted", "length-clipped", ...).
const char* LassoEnumStopName(LassoEnumStop stop);

// Nondeterministic Büchi automaton over a dense integer alphabet, with
// state-based acceptance: a run is accepting iff it visits an accepting
// state infinitely often. NBAs represent the ω-regular envelopes the paper
// works with: SControl(A), LTL properties, and position selectors.
class Nba {
 public:
  explicit Nba(int alphabet_size) : alphabet_size_(alphabet_size) {
    RAV_CHECK_GE(alphabet_size, 0);
  }

  int alphabet_size() const { return alphabet_size_; }
  int num_states() const { return static_cast<int>(transitions_.size()); }
  int num_transitions() const;

  int AddState();
  void AddTransition(int from, int symbol, int to);
  void SetInitial(int state);
  void SetAccepting(int state, bool accepting = true);

  const std::vector<int>& initial() const { return initial_; }
  bool IsAccepting(int state) const { return accepting_[state]; }
  // (symbol, target) pairs leaving `state`.
  const std::vector<std::pair<int, int>>& TransitionsFrom(int state) const {
    return transitions_[state];
  }

  // Emptiness check with witness: returns an accepting lasso word, or
  // nullopt iff the language is empty.
  std::optional<LassoWord> FindAcceptingLasso() const;
  bool IsEmpty() const { return !FindAcceptingLasso().has_value(); }

  // Membership of the ultimately periodic word u·v^ω.
  bool AcceptsLasso(const LassoWord& word) const;

  // Language intersection (generalized-Büchi product, degeneralized).
  Nba Intersect(const Nba& other) const;

  // Language union (disjoint sum).
  Nba Union(const Nba& other) const;

  // Lifts a DFA to the NBA accepting { w ∈ Σ^ω : every finite prefix of w
  // stays... } — not a language operation we need; instead we provide:
  // the NBA accepting (L(dfa) ∩ Σ^+)^ω-ish is nontrivial, so we only
  // expose the word-lasso automaton below.

  // The single-word NBA accepting exactly {u·v^ω}.
  static Nba FromLassoWord(int alphabet_size, const LassoWord& word);

  // Enumerates accepting lassos (paths q0 →u f-cycle) of total length
  // (prefix + cycle) at most `max_length`, delivering at most `max_count`
  // to `callback` (return false to stop). The enumeration is a bounded
  // DFS: it finds every accepting lasso word up to the length bound but
  // may deliver the same ω-word under several decompositions. Returns the
  // number delivered. Used by the decision procedures that must test
  // many candidate lassos for data-consistency, not just one.
  // `max_steps` bounds the total DFS node expansions (the path space is
  // exponential in max_length; the budget keeps worst cases tractable).
  size_t EnumerateAcceptingLassos(
      size_t max_length, size_t max_count,
      const std::function<bool(const LassoWord&)>& callback,
      size_t max_steps = 2000000) const;

  // As above, but also reports why the enumeration stopped — callers that
  // turn "no lasso passed" into a verdict must distinguish an exhausted
  // space (definitive) from an exhausted budget (bound-relative).
  struct EnumerationStats {
    size_t delivered = 0;
    size_t steps = 0;
    LassoEnumStop stop = LassoEnumStop::kExhausted;
  };
  EnumerationStats EnumerateAcceptingLassosEx(
      size_t max_length, size_t max_count,
      const std::function<bool(const LassoWord&)>& callback,
      size_t max_steps = 2000000) const;

 private:
  int alphabet_size_;
  std::vector<std::vector<std::pair<int, int>>> transitions_;
  std::vector<bool> accepting_;
  std::vector<int> initial_;
};

// Resumable, pull-style counterpart of Nba::EnumerateAcceptingLassos: the
// same bounded DFS, paused between lassos so a consumer (in particular the
// parallel lasso-search engine) can drain candidates in batches. Each
// delivered lasso carries its 0-based enumeration rank; ranks are the
// deterministic tie-breaker of the parallel search. The enumerator borrows
// `nba`, which must outlive it.
class LassoEnumerator {
 public:
  LassoEnumerator(const Nba& nba, size_t max_length, size_t max_count,
                  size_t max_steps);

  // Produces the next accepting lasso and its enumeration rank. Returns
  // false when the enumeration has ended; `stop()` then says why. The
  // lasso is written into `out`'s vectors, so a caller that reuses one
  // LassoWord allocates nothing per lasso once its capacity is warm.
  bool Next(LassoWord* out, size_t* index);

  // Why the enumeration ended (meaningful once Next returned false; while
  // lassos are still being produced it reflects the state so far).
  LassoEnumStop stop() const;

  size_t delivered() const { return delivered_; }
  size_t steps() const { return steps_; }

 private:
  // One state on the DFS path, at path position = its index in stack_.
  struct Frame {
    int state;
    // The largest path position up to this one holding an accepting
    // state, or -1.
    int last_accepting;
    size_t next_edge;
  };

  // Runs one DFS micro-step (node entry or frame retirement).
  void Step();
  // Entry processing of `state`: charges a step, emits cycle closings into
  // pending_, and either opens a frame (returns true) or prunes. O(1)
  // apart from the closings it emits.
  bool EnterNode(int state);

  const Nba& nba_;
  size_t max_length_;
  size_t max_count_;
  size_t max_steps_;
  std::vector<Frame> stack_;
  std::vector<int> path_symbols_;
  // Per state, 4 ints at occurrences_[4 * state]: its number of
  // occurrences on the path (at most 3 — the prune), then their path
  // positions in ascending order.
  std::vector<int> occurrences_;
  // Closings of the current node, FIFO: the prefix lengths at which
  // `pending_path_` (the path's symbols when the node was entered) splits
  // into prefix and cycle.
  std::vector<size_t> pending_;
  std::vector<int> pending_path_;
  size_t pending_head_ = 0;
  size_t init_index_ = 0;
  size_t delivered_ = 0;
  size_t steps_ = 0;
  bool done_ = false;
  bool steps_capped_ = false;
  bool count_capped_ = false;
  bool length_clipped_ = false;
};

// Generalized Büchi automaton: acceptance requires visiting each of
// `num_accept_sets` sets infinitely often. Used as the intermediate form
// of the LTL tableau translation and of NBA intersection.
class GeneralizedNba {
 public:
  GeneralizedNba(int alphabet_size, int num_accept_sets)
      : alphabet_size_(alphabet_size), num_accept_sets_(num_accept_sets) {
    RAV_CHECK_GE(num_accept_sets, 0);
    in_accept_set_.resize(num_accept_sets > 0 ? num_accept_sets : 1);
  }

  int alphabet_size() const { return alphabet_size_; }
  int num_states() const { return static_cast<int>(transitions_.size()); }
  int num_accept_sets() const { return num_accept_sets_; }

  int AddState();
  void AddTransition(int from, int symbol, int to);
  void SetInitial(int state) { initial_.push_back(state); }
  void AddToAcceptSet(int set_index, int state);

  // Counter construction: states (q, i); the counter advances past set i
  // when the current state belongs to set i; acceptance = (·, 0) states in
  // set 0. With zero accept sets every run is accepting (one dummy set of
  // all states is used).
  Nba Degeneralize() const;

 private:
  int alphabet_size_;
  int num_accept_sets_;
  std::vector<std::vector<std::pair<int, int>>> transitions_;
  std::vector<std::vector<bool>> in_accept_set_;  // [set][state]
  std::vector<int> initial_;
};

}  // namespace rav

#endif  // RAV_AUTOMATA_NBA_H_
