#include "era/run_check.h"

#include <string>

#include "base/numbers.h"

namespace rav {

namespace {

std::string ViolationMessage(const GlobalConstraint& c, size_t n, size_t m) {
  std::string out = "constraint e";
  out += c.is_equality ? "=" : "≠";
  out += IndexedName("[", c.i.value() + 1);
  out += IndexedName(",", c.j.value() + 1);
  out += IndexedName("] violated between positions ",
                     static_cast<long long>(n));
  out += IndexedName(" and ", static_cast<long long>(m));
  if (!c.description.empty()) out += " (" + c.description + ")";
  return out;
}

}  // namespace

Status CheckFiniteRunConstraints(const ExtendedAutomaton& era,
                                 const FiniteRun& run) {
  const size_t len = run.length();
  for (const GlobalConstraint& c : era.constraints()) {
    for (size_t n = 0; n < len; ++n) {
      int dfa_state = c.dfa.initial();
      for (size_t m = n; m < len; ++m) {
        dfa_state = c.dfa.Next(dfa_state, run.states[m].value());
        if (!c.dfa.IsAccepting(dfa_state)) continue;
        bool equal = run.values[n][c.i.value()] == run.values[m][c.j.value()];
        if (equal != c.is_equality) {
          return Status::InvalidArgument(ViolationMessage(c, n, m));
        }
      }
    }
  }
  return Status::OK();
}

Status ValidateEraRunPrefix(const ExtendedAutomaton& era, const Database& db,
                            const FiniteRun& run, bool require_initial,
                            const compile::TransitionGuardView& guards,
                            compile::GuardStats* guard_stats) {
  RAV_RETURN_IF_ERROR(ValidateRunPrefix(era.automaton(), db, run,
                                        require_initial, guards, guard_stats));
  return CheckFiniteRunConstraints(era, run);
}

Status CheckLassoRunConstraints(const ExtendedAutomaton& era,
                                const LassoRun& run) {
  const size_t spine = run.spine.length();
  const size_t period = run.period();
  RAV_CHECK_GE(period, 1u);
  for (const GlobalConstraint& c : era.constraints()) {
    // Window: source positions n < spine (positions beyond the spine see
    // exactly the suffix seen from n - period); target positions up to
    // n + spine + 2 * period * |dfa| (the (DFA state, phase) pair repeats
    // with period dividing period * |dfa|).
    const size_t window =
        spine + 2 * period * static_cast<size_t>(c.dfa.num_states()) + 1;
    for (size_t n = 0; n < spine; ++n) {
      int dfa_state = c.dfa.initial();
      for (size_t m = n; m < n + window; ++m) {
        dfa_state = c.dfa.Next(dfa_state, run.StateAt(m).value());
        if (!c.dfa.IsAccepting(dfa_state)) continue;
        bool equal =
            run.ValuesAt(n)[c.i.value()] == run.ValuesAt(m)[c.j.value()];
        if (equal != c.is_equality) {
          return Status::InvalidArgument(ViolationMessage(c, n, m));
        }
      }
    }
  }
  return Status::OK();
}

Status ValidateEraLassoRun(const ExtendedAutomaton& era, const Database& db,
                           const LassoRun& run,
                           const compile::TransitionGuardView& guards,
                           compile::GuardStats* guard_stats) {
  RAV_RETURN_IF_ERROR(
      ValidateLassoRun(era.automaton(), db, run, guards, guard_stats));
  return CheckLassoRunConstraints(era, run);
}

}  // namespace rav
