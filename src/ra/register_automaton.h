#ifndef RAV_RA_REGISTER_AUTOMATON_H_
#define RAV_RA_REGISTER_AUTOMATON_H_

#include <string>
#include <vector>

#include "base/source_location.h"
#include "base/status.h"
#include "base/strong_id.h"
#include "relational/schema.h"
#include "types/type.h"

namespace rav {

// A transition (p, δ, q): from state p, the registers may evolve from x̄
// to ȳ in any way satisfying the σ-type δ (evaluated against the
// database), landing in state q.
struct RaTransition {
  StateId from;
  Type guard;
  StateId to;
};

// A database-driven register automaton A = (k, σ, Q, I, F, Δ) with Büchi
// acceptance (Section 2 of the paper): runs are infinite sequences of
// (value-tuple, state, type) triples over a database D, starting in I,
// visiting F infinitely often, with every consecutive pair of value
// tuples satisfying the transition's type in D.
//
// The "no database" automata of Sections 4–5 are the special case of an
// empty schema.
//
// State ids are the strong StateId type (base/strong_id.h): dense indices
// minted by AddState, iterable via States().
class RegisterAutomaton {
 public:
  RegisterAutomaton(int num_registers, Schema schema);

  int num_registers() const { return num_registers_; }
  const Schema& schema() const { return schema_; }

  // --- construction ---
  StateId AddState(const std::string& name);
  void SetInitial(StateId state, bool initial = true);
  void SetFinal(StateId state, bool final_state = true);
  // Guard must be a type over 2k variables and the schema's constants.
  void AddTransition(StateId from, Type guard, StateId to);

  // Fresh TypeBuilder shaped for this automaton's transitions.
  TypeBuilder NewGuardBuilder() const {
    return TypeBuilder::ForTransition(num_registers_, schema_);
  }

  // Spec-file positions of declarations, recorded by io/text_format so
  // analysis/ diagnostics can point at source lines. Default-invalid for
  // programmatically built automata.
  void SetStateLocation(StateId state, SourceLocation loc);
  const SourceLocation& state_location(StateId state) const;
  void SetTransitionLocation(int index, SourceLocation loc);
  const SourceLocation& transition_location(int index) const;

  // --- inspection ---
  int num_states() const { return static_cast<int>(state_names_.size()); }
  int num_transitions() const { return static_cast<int>(transitions_.size()); }
  // The dense state id space, iterable: `for (StateId q : a.States())`.
  IdRange<StateId> States() const { return IdRange<StateId>(num_states()); }
  const std::string& state_name(StateId s) const;
  // StateId::Invalid() when no state has that name. O(1) expected: one
  // probe sequence in the name index.
  StateId FindState(const std::string& name) const;
  bool IsInitial(StateId s) const { return initial_[s.value()]; }
  bool IsFinal(StateId s) const { return final_[s.value()]; }
  std::vector<StateId> InitialStates() const;
  const RaTransition& transition(int index) const;
  const std::vector<int>& TransitionsFrom(StateId s) const {
    return transitions_from_[s.value()];
  }

  // At most one distinct guard per state (Section 2's state-driven
  // condition; the state trace then determines the control trace).
  bool IsStateDriven() const;
  // Every transition guard is a complete σ-type.
  bool IsComplete() const;

  // Distinct guards used anywhere (by Type equality), in first-use order.
  std::vector<Type> DistinctGuards() const;

  std::string ToString() const;

 private:
  int num_registers_;
  Schema schema_;
  std::vector<std::string> state_names_;
  // Open-addressing index over state_names_: slot -> state id, -1 empty;
  // power-of-two size, load kept at most 1/2. It holds ids, not pointers,
  // so a copied automaton's index is valid as copied.
  std::vector<int> name_slots_;
  std::vector<bool> initial_;
  std::vector<bool> final_;
  std::vector<RaTransition> transitions_;
  std::vector<std::vector<int>> transitions_from_;
  std::vector<SourceLocation> state_locations_;
  std::vector<SourceLocation> transition_locations_;
};

}  // namespace rav

#endif  // RAV_RA_REGISTER_AUTOMATON_H_
