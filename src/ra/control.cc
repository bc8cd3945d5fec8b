#include "ra/control.h"

#include "base/flat_map.h"

namespace rav {

namespace {

// A (source state, guard) pair borrowing the automaton's guard, compared
// by value — the key the alphabet constructor interns symbols by.
struct SymbolKey {
  StateId state;
  const Type* guard;
  bool operator==(const SymbolKey& other) const {
    return state == other.state && *guard == *other.guard;
  }
};
struct SymbolKeyHash {
  size_t operator()(const SymbolKey& key) const {
    size_t seed = Type::Hasher()(*key.guard);
    HashCombineValue(seed, key.state);
    return seed;
  }
};

}  // namespace

ControlAlphabet::ControlAlphabet(const RegisterAutomaton& automaton,
                                 compile::GuardEngine engine)
    : engine_(compile::ResolveGuardEngine(engine)) {
  transition_symbol_.resize(automaton.num_transitions());
  // Symbol ids are the interner's ids: first-use order over transitions.
  FlatIdMap<SymbolKey, SymbolKeyHash> symbol_ids;
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const RaTransition& t = automaton.transition(ti);
    const auto [symbol, fresh] = symbol_ids.Intern({t.from, &t.guard});
    if (fresh) symbols_.emplace_back(t.from, t.guard);
    transition_symbol_[ti] = SymbolId(symbol);
  }
  const int k = automaton.num_registers();
  if (engine_ == compile::GuardEngine::kCompiled) {
    std::vector<const Type*> guards;
    guards.reserve(automaton.num_transitions());
    for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
      guards.push_back(&automaton.transition(ti).guard);
    }
    tables_ = compile::GuardTableSet::Build(
        guards, k, automaton.schema().num_constants(), &transition_guard_id_);
    symbol_guard_id_.assign(symbols_.size(), GuardId::Invalid());
    for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
      symbol_guard_id_[transition_symbol_[ti].value()] =
          transition_guard_id_[ti];
    }
    // The table set already holds every distinct x̄ restriction — reuse it
    // instead of recomputing RestrictToX per symbol.
    restricted_.reserve(symbols_.size());
    symbol_closure_program_.reserve(symbols_.size());
    symbol_x_closure_program_.reserve(symbols_.size());
    for (size_t s = 0; s < symbols_.size(); ++s) {
      const GuardId gid = symbol_guard_id_[s];
      restricted_.push_back(tables_->x_restricted(gid));
      symbol_closure_program_.push_back(
          tables_->closure_ops(gid).empty() ? GuardId::Invalid() : gid);
      symbol_x_closure_program_.push_back(
          tables_->x_closure_ops(gid).empty() ? GuardId::Invalid() : gid);
    }
  } else {
    restricted_.reserve(symbols_.size());
    for (const auto& [state, guard] : symbols_) {
      restricted_.push_back(RestrictToX(guard, k));
    }
  }
}

SymbolId ControlAlphabet::SymbolOf(StateId q, const Type& guard) const {
  for (size_t s = 0; s < symbols_.size(); ++s) {
    if (symbols_[s].first == q && symbols_[s].second == guard) {
      return SymbolId(static_cast<int>(s));
    }
  }
  return SymbolId::Invalid();
}

std::string ControlAlphabet::SymbolName(const RegisterAutomaton& automaton,
                                        SymbolId symbol) const {
  return "(" + automaton.state_name(state_of(symbol)) + ", δ" +
         std::to_string(symbol.value()) + ")";
}

Nba BuildSControlNba(const RegisterAutomaton& automaton,
                     const ControlAlphabet& alphabet) {
  const int num_symbols = alphabet.size();

  // Frontier compatibility between consecutive control symbols:
  // consistency of δ|ȳ with δ'|x̄. For complete automata this coincides
  // with the paper's condition (iii) (isomorphic restrictions: two
  // complete equality types are conjoinable iff equal); for incomplete
  // automata consistency is the sound over-approximation the bounded
  // searches need. It depends only on the pair of restrictions, so it is
  // read from the frontier classes: the compiled tables carry them per
  // guard; without tables the symbols' restrictions are interned here.
  const compile::GuardTableSet* tables = alphabet.tables();
  compile::FrontierClasses local;
  if (tables == nullptr) {
    const int k = automaton.num_registers();
    std::vector<Type> y_restricted;
    y_restricted.reserve(num_symbols);
    std::vector<const Type*> x_items;
    std::vector<const Type*> y_items;
    for (SymbolId s : alphabet.Symbols()) {
      y_restricted.push_back(RestrictToYAsX(alphabet.guard_of(s), k));
      x_items.push_back(&alphabet.x_restricted_guard_of(s));
      y_items.push_back(&y_restricted.back());
    }
    local = compile::FrontierClasses::Build(x_items, y_items);
  }
  const compile::FrontierClasses& classes =
      tables != nullptr ? tables->frontier() : local;
  // A symbol's item in `classes`: its guard id under the tables, else the
  // symbol itself.
  auto item_of = [&](int symbol) {
    return tables != nullptr
               ? alphabet.guard_id_of_symbol(SymbolId(symbol)).value()
               : symbol;
  };
  const int num_x = classes.num_x_classes();
  const int num_y = classes.num_y_classes();

  // Symbols bucketed by ȳ-class (counting sort, CSR), and for every
  // x̄-class the ȳ-classes compatible with it (CSR) — the previous symbols
  // a transition may follow are exactly those buckets.
  std::vector<int> bucket_start(num_y + 1, 0);
  for (int s = 0; s < num_symbols; ++s) {
    ++bucket_start[classes.y_class(item_of(s)).value() + 1];
  }
  for (int y = 0; y < num_y; ++y) bucket_start[y + 1] += bucket_start[y];
  std::vector<int> bucket(num_symbols);
  {
    std::vector<int> fill(bucket_start.begin(), bucket_start.end() - 1);
    for (int s = 0; s < num_symbols; ++s) {
      bucket[fill[classes.y_class(item_of(s)).value()]++] = s;
    }
  }
  std::vector<int> follows_start(num_x + 1, 0);
  std::vector<YClassId> follows;
  for (XClassId x : IdRange<XClassId>(num_x)) {
    for (YClassId y : IdRange<YClassId>(num_y)) {
      if (classes.Compatible(y, x)) follows.push_back(y);
    }
    follows_start[x.value() + 1] = static_cast<int>(follows.size());
  }

  // NBA states: (automaton state, previous symbol or -1),
  // id = q * (num_symbols + 1) + (prev + 1).
  Nba nba(num_symbols);
  const int width = num_symbols + 1;
  for (StateId q : automaton.States()) {
    for (int p = 0; p < width; ++p) {
      int id = nba.AddState();
      RAV_CHECK_EQ(id, q.value() * width + p);
      if (automaton.IsFinal(q)) nba.SetAccepting(id);
    }
  }
  // Each transition appends at most one edge to each source state, in
  // transition order, so every per-state list is ordered by transition
  // index however the previous symbols are visited.
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const RaTransition& t = automaton.transition(ti);
    const int symbol = alphabet.SymbolOfTransition(ti).value();
    const int from = t.from.value() * width;
    const int to = t.to.value() * width + (symbol + 1);
    nba.AddTransition(from, symbol, to);
    const int x = classes.x_class(item_of(symbol)).value();
    for (int f = follows_start[x]; f < follows_start[x + 1]; ++f) {
      const int y = follows[f].value();
      for (int b = bucket_start[y]; b < bucket_start[y + 1]; ++b) {
        nba.AddTransition(from + bucket[b] + 1, symbol, to);
      }
    }
  }
  for (StateId q : automaton.InitialStates()) {
    nba.SetInitial(q.value() * width + 0);
  }
  return nba;
}

Nba BuildStateTraceNba(const RegisterAutomaton& automaton,
                       const ControlAlphabet& alphabet) {
  Nba control = BuildSControlNba(automaton, alphabet);
  Nba out(automaton.num_states());
  for (int s = 0; s < control.num_states(); ++s) {
    int id = out.AddState();
    RAV_CHECK_EQ(id, s);
    out.SetAccepting(id, control.IsAccepting(s));
  }
  for (int s = 0; s < control.num_states(); ++s) {
    for (const auto& [symbol, to] : control.TransitionsFrom(s)) {
      out.AddTransition(s, alphabet.state_of(SymbolId(symbol)).value(), to);
    }
  }
  for (int s : control.initial()) out.SetInitial(s);
  return out;
}

std::vector<int> ControlWordOfRun(const RegisterAutomaton& automaton,
                                  const ControlAlphabet& alphabet,
                                  const FiniteRun& run) {
  (void)automaton;
  std::vector<int> word;
  word.reserve(run.transition_indices.size());
  for (int ti : run.transition_indices) {
    word.push_back(alphabet.SymbolOfTransition(ti).value());
  }
  return word;
}

LassoWord ControlWordOfLassoRun(const RegisterAutomaton& automaton,
                                const ControlAlphabet& alphabet,
                                const LassoRun& run) {
  (void)automaton;
  LassoWord word;
  for (size_t n = 0; n < run.cycle_start; ++n) {
    word.prefix.push_back(
        alphabet.SymbolOfTransition(run.TransitionAt(n)).value());
  }
  for (size_t n = run.cycle_start; n < run.spine.length(); ++n) {
    word.cycle.push_back(
        alphabet.SymbolOfTransition(run.TransitionAt(n)).value());
  }
  return word;
}

}  // namespace rav
