// E17 — Constraint-closure construction: the production kernel against
// the reference closure of tests/oracle (per-start DFA restarts).
// Claim: resolving the global constraints with one forward sweep over
// grouped DFA runs is O(window · |Q_dfa|) per constraint instead of the
// per-start-restart O(window²), so closure construction speeds up
// super-linearly in the window; growing a closure with ExtendedBy costs
// one cycle of sweep instead of a full rebuild; and a drain candidate the
// probe window refutes costs one consistency scan, with no
// canonicalization and no allocation. Kernel and oracle are checked for
// identical classes/edges/consistency on every configuration.
// Counters: window, constraints, classes, ineq_edges.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "automata/nba.h"
#include "base/numbers.h"
#include "era/constraint_graph.h"
#include "era/emptiness.h"
#include "oracle/closure_oracle.h"
#include "ra/control.h"
#include "service/compiled_spec.h"

namespace rav {
namespace {

// A 2-register, 2-state ERA with `num_constraints` anchored gap-style
// global constraints in the shape of the paper's Example 5: constraint c
// relates register 0 at a q0-position n to register 1 at position
// n + gap_c (regex "q0 q1 ... q1"). Anchoring matches real constraints
// ("whenever the run visits q0, ...") and separates the engines: the
// reference engine restarts the DFA at every start position and steps it
// to the end of the window even after it dies, while the linear engine
// drops non-q0 starts immediately (coreachability early-exit) and keeps
// only the handful of live runs.
ExtendedAutomaton MakeAnchoredConstraintEra(int num_constraints) {
  RegisterAutomaton a(2, Schema());
  StateId q0 = a.AddState("q0");
  StateId q1 = a.AddState("q1");
  a.SetInitial(q0);
  a.SetFinal(q0);
  a.AddTransition(q0, a.NewGuardBuilder().Build().value(), q1);
  a.AddTransition(q1, a.NewGuardBuilder().Build().value(), q1);
  a.AddTransition(q1, a.NewGuardBuilder().Build().value(), q0);
  ExtendedAutomaton era(std::move(a));
  for (int c = 0; c < num_constraints; ++c) {
    const int gap = 2 + (c % 3);
    std::string expr = "q0";
    for (int i = 0; i < gap; ++i) expr += " q1";
    RAV_CHECK(
        era.AddConstraintFromText(
            RegisterPair{RegisterId(0), RegisterId(1)},
            /*is_equality=*/c % 2 == 0, expr)
            .ok());
  }
  return era;
}

// q0 q1 q1 q1 repeated: every fourth position anchors new constraint runs.
LassoWord AnchoredWord(const RegisterAutomaton& a,
                       const ControlAlphabet& alphabet) {
  int sym_q0 = -1;
  int sym_q1 = -1;
  for (int s = 0; s < alphabet.size(); ++s) {
    const std::string& name = a.state_name(alphabet.state_of(SymbolId(s)));
    if (name == "q0" && sym_q0 < 0) sym_q0 = s;
    if (name == "q1" && sym_q1 < 0) sym_q1 = s;
  }
  RAV_CHECK_GE(sym_q0, 0);
  RAV_CHECK_GE(sym_q1, 0);
  LassoWord word;
  word.cycle = {sym_q0, sym_q1, sym_q1, sym_q1};
  return word;
}

void CheckEnginesAgree(const ExtendedAutomaton& era,
                       const ControlAlphabet& alphabet, const LassoWord& word,
                       size_t window) {
  ConstraintClosure fast(era, alphabet, word, window);
  const oracle::ReferenceClosure slow =
      oracle::ReferenceConstraintClosure(era, alphabet, word, window);
  RAV_CHECK(fast.consistent() == slow.consistent());
  RAV_CHECK_EQ(fast.num_classes(), slow.num_classes());
  for (int v = 0; v < fast.num_nodes(); ++v) {
    RAV_CHECK_EQ(fast.ClassOf(v), slow.ClassOf(v));
  }
  RAV_CHECK(fast.InequalityEdges() == slow.InequalityEdges());
}

template <typename Build>
void RunClosureBench(benchmark::State& state, Build build) {
  const size_t window = static_cast<size_t>(state.range(0));
  const int num_constraints = static_cast<int>(state.range(1));
  ExtendedAutomaton era = MakeAnchoredConstraintEra(num_constraints);
  ControlAlphabet alphabet(era.automaton());
  LassoWord word = AnchoredWord(era.automaton(), alphabet);
  CheckEnginesAgree(era, alphabet, word, window);
  ClosureScratch scratch;
  int classes = 0;
  size_t edges = 0;
  for (auto _ : state) {
    auto closure = build(era, alphabet, word, window, scratch);
    classes = closure.num_classes();
    edges = closure.InequalityEdges().size();
    benchmark::DoNotOptimize(closure);
  }
  state.counters["window"] = static_cast<double>(window);
  state.counters["constraints"] = static_cast<double>(num_constraints);
  state.counters["classes"] = static_cast<double>(classes);
  state.counters["ineq_edges"] = static_cast<double>(edges);
}

void BM_ClosureLinear(benchmark::State& state) {
  RunClosureBench(state, [](const ExtendedAutomaton& era,
                            const ControlAlphabet& alphabet,
                            const LassoWord& word, size_t window,
                            ClosureScratch& scratch) {
    return ConstraintClosure(era, alphabet, word, window, &scratch);
  });
}
// MinTime keeps the engine-vs-engine ratios stable run to run (these two
// families feed the perf gate and the E17 speedup claims).
BENCHMARK(BM_ClosureLinear)
    ->ArgsProduct({{10, 20, 40, 80, 160}, {2, 4, 8}})
    ->MinTime(0.5);

void BM_ClosureReference(benchmark::State& state) {
  RunClosureBench(state, [](const ExtendedAutomaton& era,
                            const ControlAlphabet& alphabet,
                            const LassoWord& word, size_t window,
                            ClosureScratch&) {
    return oracle::ReferenceConstraintClosure(era, alphabet, word, window);
  });
}
BENCHMARK(BM_ClosureReference)
    ->ArgsProduct({{10, 20, 40, 80, 160}, {2, 4, 8}})
    ->MinTime(0.5);

// Closure reuse: the pump/realize pipelines need the same word at window
// and window + one cycle. ExtendedBy pays one position of sweep; the old
// pipeline paid a second full build.
void BM_ClosureExtendOneCycle(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  ExtendedAutomaton era = MakeAnchoredConstraintEra(4);
  ControlAlphabet alphabet(era.automaton());
  LassoWord word = AnchoredWord(era.automaton(), alphabet);
  ClosureScratch scratch;
  ConstraintClosure base(era, alphabet, word, window, &scratch);
  for (auto _ : state) {
    ConstraintClosure wider = base.ExtendedBy(1, &scratch);
    benchmark::DoNotOptimize(wider);
  }
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_ClosureExtendOneCycle)->Arg(20)->Arg(80);

void BM_ClosureRebuildOneCycle(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  ExtendedAutomaton era = MakeAnchoredConstraintEra(4);
  ControlAlphabet alphabet(era.automaton());
  LassoWord word = AnchoredWord(era.automaton(), alphabet);
  ClosureScratch scratch;
  for (auto _ : state) {
    ConstraintClosure wider(era, alphabet, word,
                            window + word.cycle.size(), &scratch);
    benchmark::DoNotOptimize(wider);
  }
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_ClosureRebuildOneCycle)->Arg(20)->Arg(80);

// The paper's Example 5 constraint ("p1 p2* p1") on its own automaton —
// a non-synthetic shape where accepts are dense along the cycle.
void BM_ClosureExample5(benchmark::State& state) {
  const size_t pump = static_cast<size_t>(state.range(0));
  ExtendedAutomaton era = bench::CompletedEra(bench::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  // The p1 -> p2 -> p1 loop of the completed automaton, as symbols.
  LassoWord word;
  for (int s = 0; s < alphabet.size() && word.cycle.size() < 2; ++s) {
    word.cycle.push_back(s);
  }
  const size_t window = word.cycle.size() * pump;
  CheckEnginesAgree(era, alphabet, word, window);
  ClosureScratch scratch;
  for (auto _ : state) {
    ConstraintClosure closure(era, alphabet, word, window, &scratch);
    benchmark::DoNotOptimize(closure);
  }
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_ClosureExample5)->Arg(8)->Arg(32);

// The serving benchmark's search_drain `empty` requests: a 3-register
// shift ring over n states with skip edges s -> s+2 (which also assert
// x1 = y1) and the contradictory pair of constraints over every s0 ... s0
// factor, compiled as the service compiles it.
std::string DrainRingSpec(int n) {
  const std::string shift = "x1 = y2  x2 = y3  ";
  std::string t = "automaton {\n  registers 3\n  state s0 initial final\n";
  for (int s = 1; s < n; ++s) t += "  state " + IndexedName("s", s) + "\n";
  for (int s = 0; s < n; ++s) {
    t += "  transition " + IndexedName("s", s) + " -> " +
         IndexedName("s", (s + 1) % n) + " { " + shift + "}\n";
  }
  for (int s = 0; s < n; ++s) {
    t += "  transition " + IndexedName("s", s) + " -> " +
         IndexedName("s", (s + 2) % n) + " { " + shift + "x1 = y1 }\n";
  }
  t += "  constraint eq 1 1 \"s0 .* s0\"\n";
  t += "  constraint neq 1 1 \"s0 .* s0\"\n}\n";
  return t;
}

// The drain itself, closure by closure: every candidate the emptiness
// search enumerates on the ring (5000 at the default bounds), closed over
// its probe window (prefix + two cycles) and asked only consistent(), as
// the search's evaluator does before refuting it. The kernel's verdict on
// every candidate is checked against the oracle's before timing. Arg = n.
void BM_ClosureProbeDrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Result<std::shared_ptr<const service::CompiledSpec>> spec =
      service::CompiledSpec::Compile(DrainRingSpec(n));
  RAV_CHECK(spec.ok());
  const ExtendedAutomaton& era = (*spec)->emptiness_subject();
  const ControlAlphabet& alphabet = (*spec)->emptiness_alphabet();
  const Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  const EraEmptinessOptions defaults;
  LassoEnumerator enumerator(scontrol, defaults.max_lasso_length,
                             defaults.max_lassos, defaults.max_search_steps);
  std::vector<LassoWord> candidates;
  LassoWord word;
  size_t index = 0;
  while (enumerator.Next(&word, &index)) candidates.push_back(word);
  const size_t probe_pump = std::min<size_t>(SuggestedPumpCount(era), 2);
  auto probe_window = [&](const LassoWord& w) {
    return w.prefix.size() + probe_pump * w.cycle.size();
  };
  size_t refuted = 0;
  for (const LassoWord& w : candidates) {
    ConstraintClosure closure(era, alphabet, w, probe_window(w));
    RAV_CHECK(closure.consistent() ==
              oracle::ReferenceConstraintClosure(era, alphabet, w,
                                                 probe_window(w))
                  .consistent());
    refuted += !closure.consistent();
  }
  ClosureScratch scratch;
  for (auto _ : state) {
    for (const LassoWord& w : candidates) {
      ConstraintClosure closure(era, alphabet, w, probe_window(w), &scratch);
      benchmark::DoNotOptimize(closure.consistent());
    }
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["refuted"] = static_cast<double>(refuted);
  state.counters["ns_per_candidate"] = benchmark::Counter(
      static_cast<double>(candidates.size()) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ClosureProbeDrain)->DenseRange(3, 6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E17", "Constraint-closure construction: the linear forward sweep over grouped constraint-DFA runs matches the reference per-start engine bit-for-bit while scaling O(window) instead of O(window²) per constraint; ExtendedBy grows a closure for one cycle of sweep instead of a rebuild.")
