#ifndef RAV_AUTOMATA_REGEX_H_
#define RAV_AUTOMATA_REGEX_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "base/status.h"

namespace rav {

// Regular expressions over a dense integer alphabet. In this library the
// alphabet is always the state set Q of a register automaton: the paper's
// global constraints e=ᵢⱼ / e≠ᵢⱼ are regular expressions over Q matched
// against factors q_n ... q_m of the state trace.
//
// Concrete syntax accepted by Parse (symbols are whitespace- or
// juxtaposition-separated identifiers, resolved by the caller):
//   e  :=  e '|' e   — union
//        | e e       — concatenation
//        | e '*'     — Kleene star
//        | e '+'     — one or more
//        | e '?'     — optional
//        | '(' e ')'
//        | ident     — one alphabet symbol (e.g. a state name)
//        | '.'       — any single alphabet symbol
//        | '_eps'    — the empty word
// Example: "p1 p2* p1" is the constraint expression of Example 5.
class Regex {
 public:
  // --- Programmatic constructors ---
  static Regex EmptySet();
  static Regex Epsilon();
  static Regex Symbol(int symbol);
  static Regex AnySymbol();
  static Regex Concat(Regex a, Regex b);
  static Regex Union(Regex a, Regex b);
  static Regex Star(Regex a);
  static Regex Plus(Regex a);
  static Regex Optional(Regex a);

  // Parses the concrete syntax; `resolve` maps identifiers to symbols and
  // returns a negative value for unknown identifiers.
  static Result<Regex> Parse(
      const std::string& text,
      const std::function<int(const std::string&)>& resolve);

  // Thompson construction over the full alphabet.
  Nfa ToNfa(int alphabet_size) const;
  // The minimal complete DFA over [0, alphabet_size). Compiled over
  // symbol classes: one letter per symbol the expression names plus one
  // letter for every other symbol (those only `.` can match), ordered by
  // least member; Thompson, subset construction and minimization run
  // over those letters and the result is expanded back to the dense
  // alphabet. The ordering keeps subset discovery and block numbering
  // identical to ToNfa(alphabet_size).Determinize().Minimize(), so the
  // DFA is the same one, state for state, at O(named symbols) instead of
  // O(alphabet_size) per construction step (docs/compilation.md).
  Dfa ToDfa(int alphabet_size) const;

  // Renders with `name` supplying symbol names.
  std::string ToString(const std::function<std::string(int)>& name) const;

 private:
  // kPlus is a node of its own rather than Concat(a, Star(a)): sharing
  // `a` between the two operands would make the Thompson construction
  // walk it twice, doubling the NFA with every nested '+'.
  enum class Op {
    kEmpty,
    kEpsilon,
    kSymbol,
    kAny,
    kConcat,
    kUnion,
    kStar,
    kPlus,
  };

  struct Node {
    Op op;
    int symbol = -1;
    std::shared_ptr<const Node> left;
    std::shared_ptr<const Node> right;
  };

  explicit Regex(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  // (symbol, letter) pairs sorted by symbol.
  using SymbolLetters = std::vector<std::pair<int, int>>;

  // Thompson construction over `num_letters` letters: symbol s reads as
  // letter L for its pair (s, L) in `symbol_letters` (which must list
  // every symbol the expression names), and `.` as every letter.
  Nfa BuildNfa(int num_letters, const SymbolLetters& symbol_letters) const;
  // Recursive Thompson construction helper; returns (start, accept).
  std::pair<int, int> Build(const Node& node,
                            const SymbolLetters& symbol_letters,
                            Nfa& nfa) const;

  std::shared_ptr<const Node> node_;
};

}  // namespace rav

#endif  // RAV_AUTOMATA_REGEX_H_
