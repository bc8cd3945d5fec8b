#include "era/prop6.h"

#include <queue>
#include <vector>

#include "base/flat_map.h"
#include "base/hash.h"
#include "base/numbers.h"
#include "types/type.h"

namespace rav {

namespace {

// Bookkeeping component of one equality constraint: bitmask `on` of DFA
// states whose associated register carries an obligated value, bitmask
// `dead` of DFA states of sources that guessed "no future match".
struct Book {
  uint32_t on = 0;
  uint32_t dead = 0;
  auto operator<=>(const Book&) const = default;
};

// Composite control state of the Proposition 6 automaton.
struct CompositeState {
  StateId q;
  std::vector<Book> books;  // one per equality constraint
  auto operator<=>(const CompositeState&) const = default;
};

struct CompositeStateHash {
  size_t operator()(const CompositeState& cs) const {
    size_t seed = cs.books.size();
    HashCombineValue(seed, cs.q.value());
    for (const Book& b : cs.books) {
      HashCombineValue(seed, b.on);
      HashCombineValue(seed, b.dead);
    }
    return seed;
  }
};

}  // namespace

Result<ExtendedAutomaton> EliminateEqualityConstraints(
    const ExtendedAutomaton& era, Prop6Stats* stats,
    const Prop6Options& options) {
  const RegisterAutomaton& a = era.automaton();
  const int k = a.num_registers();

  // Split the constraints.
  std::vector<const GlobalConstraint*> eqs;
  std::vector<const GlobalConstraint*> ineqs;
  for (const GlobalConstraint& c : era.constraints()) {
    (c.is_equality ? eqs : ineqs).push_back(&c);
  }

  // Register layout: original registers 0..k-1, then one register per
  // (equality constraint, DFA state).
  std::vector<int> reg_base(eqs.size(), 0);
  int k_new = k;
  for (size_t c = 0; c < eqs.size(); ++c) {
    if (eqs[c]->dfa.num_states() > 30) {
      return Status::ResourceExhausted(
          "EliminateEqualityConstraints: constraint DFA too large for the "
          "bitmask encoding (max 30 states)");
    }
    reg_base[c] = k_new;
    k_new += eqs[c]->dfa.num_states();
  }

  RegisterAutomaton b(k_new, a.schema());

  // Interned composite states.
  FlatIdMap<CompositeState, CompositeStateHash> ids;
  std::queue<StateId> work;
  auto intern = [&](const CompositeState& cs) -> Result<StateId> {
    auto [raw_id, inserted] = ids.Intern(cs);
    StateId id(raw_id);
    if (!inserted) return id;
    if (static_cast<size_t>(raw_id) >= options.max_states) {
      return Status::ResourceExhausted(
          "EliminateEqualityConstraints: state budget exceeded");
    }
    std::string name = a.state_name(cs.q);
    for (const Book& book : cs.books) {
      name += IndexedName("/", book.on);
      name += IndexedName(".", book.dead);
    }
    RAV_CHECK_EQ(b.AddState(name).value(), id.value());
    b.SetInitial(id, false);  // initials set below
    b.SetFinal(id, a.IsFinal(cs.q));
    work.push(id);
    return id;
  };

  // Initial composite states: empty bookkeeping (position 0 is processed
  // by the first transition).
  for (StateId q0 : a.InitialStates()) {
    CompositeState cs{q0, std::vector<Book>(eqs.size())};
    RAV_ASSIGN_OR_RETURN(StateId id, intern(cs));
    b.SetInitial(id, true);
  }

  // Explore. A transition of B from (q, books) follows an A-transition
  // (q, δ, q'') and processes position n (whose state is q): advances all
  // sources by reading q, handles acceptance, and guesses whether a new
  // source starts at position n.
  while (!work.empty()) {
    StateId from_id = work.front();
    work.pop();
    CompositeState from = ids.KeyOf(from_id.value());
    const StateId q = from.q;

    for (int ti : a.TransitionsFrom(q)) {
      const RaTransition& t = a.transition(ti);
      // Per-constraint step: compute the advanced bookkeeping and the
      // guard equalities, branching over the yes/no guess per constraint.
      struct Option {
        Book book;
        // Equalities to conjoin, as element pairs in the k_new transition
        // layout (x_i = i, y_i = k_new + i).
        std::vector<std::pair<int, int>> equalities;
        bool feasible = true;
      };
      // For each constraint, the list of guess options.
      std::vector<std::vector<Option>> per_constraint(eqs.size());
      for (size_t c = 0; c < eqs.size(); ++c) {
        const GlobalConstraint& gc = *eqs[c];
        const Dfa& dfa = gc.dfa;
        const Book& book = from.books[c];

        // Advance the "on" sources by reading q; collect per-target the
        // source registers feeding it.
        Book advanced;
        std::vector<std::pair<int, int>> eq_pairs;
        bool ok = true;
        for (int s = 0; s < dfa.num_states(); ++s) {
          if (!((book.on >> s) & 1)) continue;
          int s2 = dfa.Next(s, q.value());
          // Move the value: y_{r(s2)} = x_{r(s)}; merging sources at the
          // same target state forces their values equal via the shared y.
          eq_pairs.emplace_back(k_new + reg_base[c] + s2, reg_base[c] + s);
          advanced.on |= uint32_t{1} << s2;
          // Acceptance after reading q at this position: the stored value
          // must equal d_n[j], i.e. x_{r(s)} = x_j.
          if (dfa.IsAccepting(s2)) {
            eq_pairs.emplace_back(reg_base[c] + s, gc.j.value());
          }
        }
        // Advance the dead states; any accepting dead state kills the
        // option set entirely (the "no" guess is being refuted).
        for (int s = 0; s < dfa.num_states(); ++s) {
          if (!((book.dead >> s) & 1)) continue;
          int s2 = dfa.Next(s, q.value());
          if (dfa.IsAccepting(s2)) {
            ok = false;
            break;
          }
          advanced.dead |= uint32_t{1} << s2;
        }
        if (!ok) {
          per_constraint[c] = {};  // no option: this A-transition dies
          continue;
        }

        // Guess for the new source at position n (value d_n[i]).
        int s0 = dfa.Next(dfa.initial(), q.value());
        // Option "yes": store d_n[i] into the register of s0 (y-side; if
        // an advanced source shares s0, the shared y forces equality).
        Option yes;
        yes.book = advanced;
        yes.equalities = eq_pairs;
        yes.book.on |= uint32_t{1} << s0;
        yes.equalities.emplace_back(k_new + reg_base[c] + s0, gc.i.value());
        if (dfa.IsAccepting(s0)) {
          // The factor q_n (length 1) matches: d_n[i] = d_n[j].
          yes.equalities.emplace_back(gc.i.value(), gc.j.value());
        }
        // Option "no": the position never participates as a source.
        Option no;
        no.book = advanced;
        no.equalities = eq_pairs;
        if (dfa.IsAccepting(s0)) {
          no.feasible = false;  // immediate refutation of the guess
        } else {
          no.book.dead |= uint32_t{1} << s0;
        }
        per_constraint[c].push_back(yes);
        if (no.feasible) per_constraint[c].push_back(no);
      }

      // Cartesian product over constraints.
      bool dead_transition = false;
      for (size_t c = 0; c < eqs.size(); ++c) {
        if (per_constraint[c].empty()) dead_transition = true;
      }
      if (dead_transition) continue;

      std::vector<size_t> choice(eqs.size(), 0);
      while (true) {
        // Assemble the guard and target bookkeeping for this choice.
        TypeBuilder builder(2 * k_new, a.schema().num_constants());
        builder.AddAll(EmbedTransition(t.guard, k, k_new));
        CompositeState to;
        to.q = t.to;
        to.books.resize(eqs.size());
        for (size_t c = 0; c < eqs.size(); ++c) {
          const Option& opt = per_constraint[c][choice[c]];
          to.books[c] = opt.book;
          for (const auto& [e1, e2] : opt.equalities) {
            builder.AddEq(ElementIndex(e1), ElementIndex(e2));
          }
        }
        Result<Type> guard = builder.Build();
        if (guard.ok()) {
          if (static_cast<size_t>(b.num_transitions()) >=
              options.max_transitions) {
            return Status::ResourceExhausted(
                "EliminateEqualityConstraints: transition budget exceeded");
          }
          RAV_ASSIGN_OR_RETURN(StateId to_id, intern(to));
          b.AddTransition(from_id, std::move(guard).value(), to_id);
        }
        // Next choice.
        size_t c = 0;
        while (c < eqs.size() && choice[c] + 1 == per_constraint[c].size()) {
          choice[c] = 0;
          ++c;
        }
        if (c == eqs.size()) break;
        ++choice[c];
      }
    }
  }

  // Lift the inequality constraints to B's states.
  ExtendedAutomaton out(std::move(b));
  const RegisterAutomaton& b_ref = out.automaton();
  for (const GlobalConstraint* c : ineqs) {
    Dfa lifted(b_ref.num_states(), c->dfa.num_states(), c->dfa.initial());
    for (int s = 0; s < c->dfa.num_states(); ++s) {
      lifted.SetAccepting(s, c->dfa.IsAccepting(s));
      for (StateId bs : b_ref.States()) {
        lifted.SetTransition(s, bs.value(),
                             c->dfa.Next(s, ids.KeyOf(bs.value()).q.value()));
      }
    }
    RAV_RETURN_IF_ERROR(out.AddConstraintDfa(RegisterPair{c->i, c->j},
                                             /*is_equality=*/false,
                                             std::move(lifted),
                                             c->description + " (lifted)"));
  }

  if (stats != nullptr) {
    stats->registers_before = k;
    stats->registers_after = k_new;
    stats->states_before = a.num_states();
    stats->states_after = out.automaton().num_states();
    stats->transitions_before = a.num_transitions();
    stats->transitions_after = out.automaton().num_transitions();
  }
  return out;
}

}  // namespace rav
