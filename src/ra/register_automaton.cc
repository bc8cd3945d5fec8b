#include "ra/register_automaton.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_set>

namespace rav {

RegisterAutomaton::RegisterAutomaton(int num_registers, Schema schema)
    : num_registers_(num_registers), schema_(std::move(schema)) {
  RAV_CHECK_GE(num_registers, 0);
}

namespace {

// Inserts state `id` into the open-addressing name index `slots` (which
// has a free slot), hashing `name`.
void IndexName(std::vector<int>& slots, const std::string& name, int id) {
  const size_t mask = slots.size() - 1;
  size_t i = std::hash<std::string>{}(name) & mask;
  while (slots[i] >= 0) i = (i + 1) & mask;
  slots[i] = id;
}

}  // namespace

StateId RegisterAutomaton::AddState(const std::string& name) {
  RAV_CHECK(!FindState(name).valid());
  state_names_.push_back(name);
  if (state_names_.size() * 2 > name_slots_.size()) {
    name_slots_.assign(std::max<size_t>(16, name_slots_.size() * 2), -1);
    for (int id = 0; id < num_states(); ++id) {
      IndexName(name_slots_, state_names_[id], id);
    }
  } else {
    IndexName(name_slots_, name, num_states() - 1);
  }
  initial_.push_back(false);
  final_.push_back(false);
  transitions_from_.emplace_back();
  state_locations_.emplace_back();
  return StateId(num_states() - 1);
}

void RegisterAutomaton::SetInitial(StateId state, bool initial) {
  RAV_CHECK_GE(state.value(), 0);
  RAV_CHECK_LT(state.value(), num_states());
  initial_[state.value()] = initial;
}

void RegisterAutomaton::SetFinal(StateId state, bool final_state) {
  RAV_CHECK_GE(state.value(), 0);
  RAV_CHECK_LT(state.value(), num_states());
  final_[state.value()] = final_state;
}

void RegisterAutomaton::AddTransition(StateId from, Type guard, StateId to) {
  RAV_CHECK_GE(from.value(), 0);
  RAV_CHECK_LT(from.value(), num_states());
  RAV_CHECK_GE(to.value(), 0);
  RAV_CHECK_LT(to.value(), num_states());
  RAV_CHECK_EQ(guard.num_vars(), 2 * num_registers_);
  RAV_CHECK_EQ(guard.num_constants(), schema_.num_constants());
  transitions_from_[from.value()].push_back(num_transitions());
  transitions_.push_back(RaTransition{from, std::move(guard), to});
  transition_locations_.emplace_back();
}

void RegisterAutomaton::SetStateLocation(StateId state, SourceLocation loc) {
  RAV_CHECK_GE(state.value(), 0);
  RAV_CHECK_LT(state.value(), num_states());
  state_locations_[state.value()] = loc;
}

const SourceLocation& RegisterAutomaton::state_location(StateId state) const {
  RAV_CHECK_GE(state.value(), 0);
  RAV_CHECK_LT(state.value(), num_states());
  return state_locations_[state.value()];
}

void RegisterAutomaton::SetTransitionLocation(int index, SourceLocation loc) {
  RAV_CHECK_GE(index, 0);
  RAV_CHECK_LT(index, num_transitions());
  transition_locations_[index] = loc;
}

const SourceLocation& RegisterAutomaton::transition_location(int index) const {
  RAV_CHECK_GE(index, 0);
  RAV_CHECK_LT(index, num_transitions());
  return transition_locations_[index];
}

const std::string& RegisterAutomaton::state_name(StateId s) const {
  RAV_CHECK_GE(s.value(), 0);
  RAV_CHECK_LT(s.value(), num_states());
  return state_names_[s.value()];
}

StateId RegisterAutomaton::FindState(const std::string& name) const {
  if (name_slots_.empty()) return StateId::Invalid();
  const size_t mask = name_slots_.size() - 1;
  for (size_t i = std::hash<std::string>{}(name) & mask; name_slots_[i] >= 0;
       i = (i + 1) & mask) {
    if (state_names_[name_slots_[i]] == name) return StateId(name_slots_[i]);
  }
  return StateId::Invalid();
}

std::vector<StateId> RegisterAutomaton::InitialStates() const {
  std::vector<StateId> out;
  for (StateId s : States()) {
    if (initial_[s.value()]) out.push_back(s);
  }
  return out;
}

const RaTransition& RegisterAutomaton::transition(int index) const {
  RAV_CHECK_GE(index, 0);
  RAV_CHECK_LT(index, num_transitions());
  return transitions_[index];
}

bool RegisterAutomaton::IsStateDriven() const {
  for (const std::vector<int>& out : transitions_from_) {
    for (size_t i = 1; i < out.size(); ++i) {
      if (!(transitions_[out[i]].guard == transitions_[out[0]].guard)) {
        return false;
      }
    }
  }
  return true;
}

bool RegisterAutomaton::IsComplete() const {
  for (const RaTransition& t : transitions_) {
    if (!t.guard.IsComplete(schema_)) return false;
  }
  return true;
}

std::vector<Type> RegisterAutomaton::DistinctGuards() const {
  std::vector<Type> guards;
  for (const RaTransition& t : transitions_) {
    bool seen = false;
    for (const Type& g : guards) {
      if (g == t.guard) {
        seen = true;
        break;
      }
    }
    if (!seen) guards.push_back(t.guard);
  }
  return guards;
}

std::string RegisterAutomaton::ToString() const {
  std::ostringstream out;
  out << "RegisterAutomaton(k=" << num_registers_ << ", "
      << schema_.ToString() << ")\n";
  for (StateId s : States()) {
    out << "  state " << state_names_[s.value()];
    if (initial_[s.value()]) out << " [initial]";
    if (final_[s.value()]) out << " [final]";
    out << "\n";
  }
  for (const RaTransition& t : transitions_) {
    out << "  " << state_names_[t.from.value()] << " --{"
        << t.guard.ToString(schema_, num_registers_) << "}--> "
        << state_names_[t.to.value()] << "\n";
  }
  return out.str();
}

}  // namespace rav
