#include "oracle/scontrol_oracle.h"

#include <vector>

namespace rav::oracle {

Nba ReferenceBuildSControlNba(const RegisterAutomaton& automaton,
                              const ControlAlphabet& alphabet) {
  const int k = automaton.num_registers();
  const int num_symbols = alphabet.size();

  // compatible[prev][next]: consistency of prev|ȳ with next|x̄.
  std::vector<std::vector<bool>> compatible(
      num_symbols, std::vector<bool>(num_symbols, false));
  if (const compile::GuardTableSet* tables = alphabet.tables()) {
    // Symbols sharing a guard share a row/column: decide compatibility
    // once per distinct-guard pair on the precomputed restrictions.
    const int num_guards = tables->num_guards();
    std::vector<std::vector<bool>> guard_compatible(
        num_guards, std::vector<bool>(num_guards, false));
    for (GuardId g1 : tables->GuardIds()) {
      const Type& frontier1 = tables->y_restricted_as_x(g1);
      for (GuardId g2 : tables->GuardIds()) {
        guard_compatible[g1.value()][g2.value()] =
            frontier1.Conjoin(tables->x_restricted(g2)).ok();
      }
    }
    for (SymbolId s1 : alphabet.Symbols()) {
      for (SymbolId s2 : alphabet.Symbols()) {
        compatible[s1.value()][s2.value()] =
            guard_compatible[alphabet.guard_id_of_symbol(s1).value()]
                            [alphabet.guard_id_of_symbol(s2).value()];
      }
    }
  } else {
    for (SymbolId s1 : alphabet.Symbols()) {
      Type frontier1 = RestrictToYAsX(alphabet.guard_of(s1), k);
      for (SymbolId s2 : alphabet.Symbols()) {
        compatible[s1.value()][s2.value()] =
            frontier1.Conjoin(RestrictToX(alphabet.guard_of(s2), k)).ok();
      }
    }
  }

  // NBA states: (automaton state, previous symbol or -1),
  // id = q * (num_symbols + 1) + (prev + 1).
  Nba nba(num_symbols);
  const int width = num_symbols + 1;
  for (StateId q : automaton.States()) {
    for (int p = 0; p < width; ++p) {
      const int id = nba.AddState();
      RAV_CHECK_EQ(id, q.value() * width + p);
      if (automaton.IsFinal(q)) nba.SetAccepting(id);
    }
  }
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const RaTransition& t = automaton.transition(ti);
    const int symbol = alphabet.SymbolOfTransition(ti).value();
    for (int prev = -1; prev < num_symbols; ++prev) {
      if (prev >= 0 && !compatible[prev][symbol]) continue;
      nba.AddTransition(t.from.value() * width + (prev + 1), symbol,
                        t.to.value() * width + (symbol + 1));
    }
  }
  for (StateId q : automaton.InitialStates()) {
    nba.SetInitial(q.value() * width + 0);
  }
  return nba;
}

}  // namespace rav::oracle
