#ifndef RAV_RA_CONTROL_H_
#define RAV_RA_CONTROL_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "automata/nba.h"
#include "compile/guard_tables.h"
#include "ra/register_automaton.h"
#include "ra/run.h"

namespace rav {

// The finite alphabet of control symbols (q, δ) of a register automaton:
// one symbol per distinct (source state, guard) pair occurring in Δ.
// Control traces and symbolic control traces are ω-words over this
// alphabet.
//
// Building the alphabet is also where the guard compilation layer hooks
// in (docs/compilation.md): with GuardEngine::kCompiled (the kAuto
// default unless RAV_GUARD_TABLES=off) every distinct guard is lowered
// once into a compile::GuardTableSet that the closure engine, the run
// validators, and the simulators all share.
class ControlAlphabet {
 public:
  explicit ControlAlphabet(
      const RegisterAutomaton& automaton,
      compile::GuardEngine engine = compile::GuardEngine::kAuto);

  int size() const { return static_cast<int>(symbols_.size()); }
  // The dense symbol id space, iterable: `for (SymbolId s : a.Symbols())`.
  IdRange<SymbolId> Symbols() const { return IdRange<SymbolId>(size()); }

  StateId state_of(SymbolId symbol) const {
    return symbols_[symbol.value()].first;
  }
  const Type& guard_of(SymbolId symbol) const {
    return symbols_[symbol.value()].second;
  }
  // guard_of(symbol) restricted to its x̄-part, precomputed once — the
  // closure engine applies it at every window's last position.
  const Type& x_restricted_guard_of(SymbolId symbol) const {
    return restricted_[symbol.value()];
  }

  // Symbol of (q, guard), or SymbolId::Invalid().
  SymbolId SymbolOf(StateId q, const Type& guard) const;
  // Symbol induced by a transition (its source state and guard).
  SymbolId SymbolOfTransition(int transition_index) const {
    return transition_symbol_[transition_index];
  }

  // --- compiled guard tables ---
  // The engine the alphabet resolved to (never kAuto).
  compile::GuardEngine guard_engine() const { return engine_; }
  // The compiled table set, or nullptr under kInterpreted.
  const compile::GuardTableSet* tables() const {
    return tables_ ? &*tables_ : nullptr;
  }
  // Dense table id of a symbol's guard (compiled engine only).
  GuardId guard_id_of_symbol(SymbolId symbol) const {
    return symbol_guard_id_[symbol.value()];
  }
  // Table id for the closure engine's per-position replay, or
  // GuardId::Invalid() when the symbol's full-guard / x̄-restricted
  // program is empty — the skip the hot closure loop takes with one dense
  // load, mirroring the interpreted path's kEmptyProgram marker (compiled
  // engine only).
  GuardId closure_program_of_symbol(SymbolId symbol) const {
    return symbol_closure_program_[symbol.value()];
  }
  GuardId x_closure_program_of_symbol(SymbolId symbol) const {
    return symbol_x_closure_program_[symbol.value()];
  }
  // Borrowed view over the owning automaton's transitions; falsy under
  // kInterpreted. Valid as long as this alphabet is alive and unmoved.
  compile::TransitionGuardView transition_guard_view() const {
    if (!tables_) return {};
    return {&*tables_, transition_guard_id_.data()};
  }
  // Distinct guards / total compiled-table bytes (0 under kInterpreted).
  int num_distinct_guards() const {
    return tables_ ? tables_->num_guards() : 0;
  }
  size_t guard_table_bytes() const {
    return tables_ ? tables_->table_bytes() : 0;
  }

  std::string SymbolName(const RegisterAutomaton& automaton,
                         SymbolId symbol) const;

 private:
  std::vector<std::pair<StateId, Type>> symbols_;
  std::vector<Type> restricted_;
  std::vector<SymbolId> transition_symbol_;
  compile::GuardEngine engine_ = compile::GuardEngine::kInterpreted;
  std::optional<compile::GuardTableSet> tables_;
  std::vector<GuardId> transition_guard_id_;  // transition -> table id
  std::vector<GuardId> symbol_guard_id_;      // symbol -> table id
  // symbol -> closure-program table id, Invalid() if the program is empty
  std::vector<GuardId> symbol_closure_program_;
  std::vector<GuardId> symbol_x_closure_program_;
};

// Builds the Büchi automaton recognizing SControl(A), the symbolic control
// traces of A (Section 2): ω-words (q_n, δ_n) with q_0 initial, a final
// state occurring infinitely often, (q_n, δ_n, q_{n+1}) ∈ Δ, and
// consecutive types agreeing on the shared registers (frontier
// compatibility). By the result of [19] (re-proved constructively in
// Theorem 9), for complete automata SControl(A) = Control(A).
// Frontier compatibility is read per class pair from the compiled tables'
// compile::FrontierClasses (interned locally under kInterpreted), so the
// build is O(states + edges) after that (docs/compilation.md).
Nba BuildSControlNba(const RegisterAutomaton& automaton,
                     const ControlAlphabet& alphabet);

// The state-trace Büchi automaton: the homomorphic image of SControl(A)
// under (q, δ) ↦ q. Alphabet = automaton states.
Nba BuildStateTraceNba(const RegisterAutomaton& automaton,
                       const ControlAlphabet& alphabet);

// Control word (sequence of control symbols) of a finite run.
std::vector<int> ControlWordOfRun(const RegisterAutomaton& automaton,
                                  const ControlAlphabet& alphabet,
                                  const FiniteRun& run);

// Control word of a lasso run, as a lasso over control symbols.
LassoWord ControlWordOfLassoRun(const RegisterAutomaton& automaton,
                                const ControlAlphabet& alphabet,
                                const LassoRun& run);

}  // namespace rav

#endif  // RAV_RA_CONTROL_H_
