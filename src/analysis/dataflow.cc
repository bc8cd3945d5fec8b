#include "analysis/dataflow.h"

#include <queue>
#include <utility>

#include "base/metrics.h"
#include "base/trace.h"
#include "compile/guard_tables.h"
#include "types/type.h"

namespace rav::analysis {
namespace {

// Per-register view of one guard, shared by the liveness and write
// analyses. For register r of a k-register automaton, x_r = element r and
// y_r = element k + r of the 2k-variable guard type.
//
//   reads:     the x̄ copy is observed — its class contains an element
//              other than {x_r, y_r}, or participates in a disequality
//              or a relational atom. The pure copy x_r = y_r is neither
//              a read nor a write: it only propagates the value.
//   writes:    the ȳ copy is constrained beyond the pure copy, i.e. the
//              transition pins the POST value to something (a constant,
//              another register, a disequality, an atom).
//   preserves: the guard forces x_r = y_r, so the pre value survives the
//              step. A non-preserving transition may change the register
//              arbitrarily — a kill for liveness purposes.
struct GuardRegisterFacts {
  std::vector<bool> reads;
  std::vector<bool> writes;
  std::vector<bool> preserves;
};

GuardRegisterFacts AnalyzeGuardRegisters(const Type& guard, int k) {
  GuardRegisterFacts facts;
  facts.reads.assign(k, false);
  facts.writes.assign(k, false);
  facts.preserves.assign(k, false);
  std::vector<int> class_size(guard.num_classes(), 0);
  for (int e = 0; e < guard.num_elements(); ++e) {
    ++class_size[guard.ClassOf(e)];
  }
  std::vector<bool> class_hard(guard.num_classes(), false);
  for (const auto& [ca, cb] : guard.disequalities()) {
    class_hard[ca] = true;
    class_hard[cb] = true;
  }
  for (const TypeAtom& atom : guard.atoms()) {
    for (int c : atom.args) class_hard[c] = true;
  }
  for (int r = 0; r < k; ++r) {
    const int cx = guard.ClassOf(r);
    const int cy = guard.ClassOf(k + r);
    facts.preserves[r] = cx == cy;
    // "Beyond the pure copy": the class holds more members than the
    // {x_r, y_r} pair it would have if the guard only copied the value.
    const int pair_size = cx == cy ? 2 : 1;
    facts.reads[r] = class_hard[cx] || class_size[cx] > pair_size;
    facts.writes[r] = class_hard[cy] || class_size[cy] > pair_size;
  }
  return facts;
}

// --- RAV011: backward register liveness ------------------------------------

// Fact: per-register bit — "some path from here reads the register's
// current value before a non-preserving transition overwrites it".
struct RegisterLivenessProblem {
  using Fact = std::vector<bool>;

  const std::vector<GuardRegisterFacts>* guard_facts;  // per distinct guard
  const std::vector<GuardId>* guard_id;                // per transition
  const std::vector<bool>* state_live;
  int k;

  Fact BoundaryFact(StateId) const { return Fact(k, false); }

  bool Join(Fact& into, const Fact& from) const {
    bool changed = false;
    for (int r = 0; r < k; ++r) {
      if (from[r] && !into[r]) {
        into[r] = true;
        changed = true;
      }
    }
    return changed;
  }

  Fact Transfer(int ti, const Fact& after) const {
    const GuardRegisterFacts& g = (*guard_facts)[(*guard_id)[ti].value()];
    Fact before(k, false);
    for (int r = 0; r < k; ++r) {
      before[r] = g.reads[r] || (after[r] && g.preserves[r]);
    }
    return before;
  }
};

// --- RAV012: forward frontier fireability ----------------------------------

// Fact: the set of guard ids whose ȳ-frontier can actually arrive at this
// state along a chain of fireable transitions from an initial state, plus
// one extra "entry" bit for initial states (a run may start there with an
// unconstrained frontier). The lattice is the powerset, join is union.
struct FireabilityProblem {
  using Fact = std::vector<bool>;  // size num_guards + 1; last bit = entry

  const ControlGraph* graph;
  const compile::GuardTableSet* tables;
  const std::vector<GuardId>* guard_id;
  const std::vector<bool>* state_live;

  int num_guards() const { return tables->num_guards(); }

  bool Enterable(const Fact& arrival, GuardId guard) const {
    if (arrival[num_guards()]) return true;  // run can start here
    for (int g = 0; g < num_guards(); ++g) {
      if (arrival[g] && tables->Compatible(GuardId(g), guard)) return true;
    }
    return false;
  }

  Fact BoundaryFact(StateId q) const {
    Fact fact(num_guards() + 1, false);
    if ((*state_live)[q.value()] && graph->automaton().IsInitial(q)) {
      fact[num_guards()] = true;
    }
    return fact;
  }

  bool Join(Fact& into, const Fact& from) const {
    bool changed = false;
    for (size_t i = 0; i < into.size(); ++i) {
      if (from[i] && !into[i]) {
        into[i] = true;
        changed = true;
      }
    }
    return changed;
  }

  Fact Transfer(int ti, const Fact& arrival) const {
    const RaTransition& t = graph->automaton().transition(ti);
    Fact out(num_guards() + 1, false);
    if (!(*state_live)[t.from.value()] || !(*state_live)[t.to.value()]) {
      return out;
    }
    if (Enterable(arrival, (*guard_id)[ti])) {
      out[(*guard_id)[ti].value()] = true;
    }
    return out;
  }
};

// --- RAV013: boolean reach/coaccept over the fireable subgraph -------------

struct ReachProblem {
  // char, not bool: RunFixpoint needs real lvalue references into the
  // per-state fact vector, which std::vector<bool> cannot hand out.
  using Fact = char;

  const ControlGraph* graph;
  const std::vector<bool>* enabled;  // per transition
  const std::vector<bool>* state_live;

  Fact BoundaryFact(StateId q) const {
    return (*state_live)[q.value()] && graph->automaton().IsInitial(q);
  }
  bool Join(Fact& into, const Fact& from) const {
    if (from && !into) {
      into = true;
      return true;
    }
    return false;
  }
  Fact Transfer(int ti, const Fact& source) const {
    return source && (*enabled)[ti];
  }
};

struct CoacceptProblem {
  using Fact = char;  // see ReachProblem

  const ControlGraph* graph;
  const std::vector<bool>* enabled;
  const std::vector<bool>* cycle_final;  // per state

  Fact BoundaryFact(StateId q) const { return (*cycle_final)[q.value()]; }
  bool Join(Fact& into, const Fact& from) const {
    if (from && !into) {
      into = true;
      return true;
    }
    return false;
  }
  Fact Transfer(int ti, const Fact& target) const {
    return target && (*enabled)[ti];
  }
};

// Final states lying on a cycle of the `enabled` subgraph restricted to
// `reachable` states — the anchors an accepting infinite run must visit
// infinitely often.
std::vector<bool> CycleFinalStates(const ControlGraph& graph,
                                   const std::vector<bool>& enabled,
                                   const std::vector<char>& reachable) {
  const RegisterAutomaton& a = graph.automaton();
  const int n = graph.num_states();
  std::vector<bool> cycle_final(n, false);
  std::vector<bool> seen(n, false);
  for (StateId f : a.States()) {
    if (!a.IsFinal(f) || !reachable[f.value()]) continue;
    std::fill(seen.begin(), seen.end(), false);
    std::queue<StateId> frontier;
    auto push_successors = [&](StateId q) {
      for (int ti : graph.OutTransitions(q)) {
        if (!enabled[ti]) continue;
        const StateId q2 = a.transition(ti).to;
        if (reachable[q2.value()] && !seen[q2.value()]) {
          seen[q2.value()] = true;
          frontier.push(q2);
        }
      }
    };
    push_successors(f);
    while (!frontier.empty() && !seen[f.value()]) {
      StateId q = frontier.front();
      frontier.pop();
      push_successors(q);
    }
    cycle_final[f.value()] = seen[f.value()];
  }
  return cycle_final;
}

}  // namespace

ControlGraph::ControlGraph(const RegisterAutomaton& a) : a_(&a) {
  out_.resize(a.num_states());
  in_.resize(a.num_states());
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    out_[t.from.value()].push_back(ti);
    in_[t.to.value()].push_back(ti);
  }
}

FlowAnalysisResult RunFlowAnalyses(
    const RegisterAutomaton& a,
    const std::vector<GlobalConstraint>* constraints,
    const std::vector<bool>& state_live) {
  RAV_TRACE_SPAN("analysis/dataflow");
  RAV_METRIC_COUNT("analysis/dataflow/calls", 1);
  const int k = a.num_registers();
  const int num_transitions = a.num_transitions();
  const ControlGraph graph(a);

  FlowAnalysisResult result;
  result.register_flow_dead.assign(k, false);
  result.dead_writes.assign(k, 0);
  result.unsatisfiable.assign(num_transitions, false);
  result.refined_state_live = state_live;
  result.refined_transition_live.assign(num_transitions, false);

  // Compile the guard tables up front: beyond the fireability frontiers,
  // the build's guard dedup lets every per-guard fact (register
  // reads/writes, restrictions) be computed once per distinct guard
  // instead of once per transition.
  std::vector<GuardId> guard_id;
  const compile::GuardTableSet tables = [&] {
    RAV_TRACE_SPAN("compile_guards");
    std::vector<const Type*> transition_guards;
    transition_guards.reserve(num_transitions);
    for (int ti = 0; ti < num_transitions; ++ti) {
      transition_guards.push_back(&a.transition(ti).guard);
    }
    return compile::GuardTableSet::Build(transition_guards, k,
                                         a.schema().num_constants(), &guard_id);
  }();
  std::vector<GuardRegisterFacts> guard_facts;  // indexed by GuardId
  guard_facts.reserve(tables.num_guards());
  for (int g = 0; g < tables.num_guards(); ++g) {
    guard_facts.push_back(AnalyzeGuardRegisters(tables.guard(GuardId(g)), k));
  }

  // --- RAV011: backward liveness over live states ---
  {
    RAV_TRACE_SPAN("liveness");
    RegisterLivenessProblem problem{&guard_facts, &guard_id, &state_live, k};
    std::vector<std::vector<bool>> live_at =
        RunFixpoint(graph, FlowDirection::kBackward, problem,
                    &result.liveness_rounds);
    std::vector<bool> read_somewhere(k, false);
    std::vector<bool> written_live(k, false);
    for (int ti = 0; ti < num_transitions; ++ti) {
      const RaTransition& t = a.transition(ti);
      const GuardRegisterFacts& facts = guard_facts[guard_id[ti].value()];
      for (int r = 0; r < k; ++r) {
        if (facts.reads[r]) read_somewhere[r] = true;
        if (facts.writes[r] && state_live[t.from.value()] &&
            state_live[t.to.value()]) {
          written_live[r] = true;
          if (!live_at[t.to.value()][r]) ++result.dead_writes[r];
        }
      }
    }
    std::vector<bool> in_constraint(k, false);
    if (constraints != nullptr) {
      for (const GlobalConstraint& c : *constraints) {
        in_constraint[c.i.value()] = true;
        in_constraint[c.j.value()] = true;
      }
    }
    for (int r = 0; r < k; ++r) {
      // Every live write is dead, yet some guard does read the register
      // globally (otherwise the local RAV004 pass already reported it).
      bool all_writes_dead = written_live[r] && result.dead_writes[r] > 0;
      for (int ti = 0; all_writes_dead && ti < num_transitions; ++ti) {
        const RaTransition& t = a.transition(ti);
        if (guard_facts[guard_id[ti].value()].writes[r] &&
            state_live[t.from.value()] && state_live[t.to.value()] &&
            live_at[t.to.value()][r]) {
          all_writes_dead = false;
        }
      }
      result.register_flow_dead[r] =
          all_writes_dead && read_somewhere[r] && !in_constraint[r];
    }
    RAV_METRIC_RECORD("analysis/dataflow/liveness_rounds",
                      result.liveness_rounds);
  }

  // --- RAV012: forward fireability through compiled guard frontiers ---
  {
    RAV_TRACE_SPAN("fireability");
    FireabilityProblem problem{&graph, &tables, &guard_id, &state_live};
    std::vector<std::vector<bool>> arrival = RunFixpoint(
        graph, FlowDirection::kForward, problem, &result.fireability_rounds);
    for (int ti = 0; ti < num_transitions; ++ti) {
      const RaTransition& t = a.transition(ti);
      if (!state_live[t.from.value()] || !state_live[t.to.value()]) continue;
      if (!problem.Enterable(arrival[t.from.value()], guard_id[ti])) {
        result.unsatisfiable[ti] = true;
      }
    }
    RAV_METRIC_RECORD("analysis/dataflow/fireability_rounds",
                      result.fireability_rounds);
  }

  // --- RAV013: Büchi liveness over the fireable subgraph ---
  {
    RAV_TRACE_SPAN("refine");
    std::vector<bool> enabled(num_transitions, false);
    for (int ti = 0; ti < num_transitions; ++ti) {
      const RaTransition& t = a.transition(ti);
      enabled[ti] = !result.unsatisfiable[ti] && state_live[t.from.value()] &&
                    state_live[t.to.value()];
    }
    ReachProblem reach_problem{&graph, &enabled, &state_live};
    int reach_rounds = 0;
    std::vector<char> reachable =
        RunFixpoint(graph, FlowDirection::kForward, reach_problem,
                    &reach_rounds);
    const std::vector<bool> cycle_final =
        CycleFinalStates(graph, enabled, reachable);
    CoacceptProblem coaccept_problem{&graph, &enabled, &cycle_final};
    int coaccept_rounds = 0;
    std::vector<char> coaccepting =
        RunFixpoint(graph, FlowDirection::kBackward, coaccept_problem,
                    &coaccept_rounds);
    result.refine_rounds = reach_rounds + coaccept_rounds;
    for (StateId q : a.States()) {
      result.refined_state_live[q.value()] =
          state_live[q.value()] && reachable[q.value()] &&
          coaccepting[q.value()];
    }
    for (int ti = 0; ti < num_transitions; ++ti) {
      const RaTransition& t = a.transition(ti);
      result.refined_transition_live[ti] =
          enabled[ti] && result.refined_state_live[t.from.value()] &&
          result.refined_state_live[t.to.value()];
    }
    RAV_METRIC_RECORD("analysis/dataflow/refine_rounds", result.refine_rounds);
  }
  return result;
}

}  // namespace rav::analysis
