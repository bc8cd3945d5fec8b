#ifndef RAV_ERA_LTLFO_H_
#define RAV_ERA_LTLFO_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "era/emptiness.h"
#include "era/extended_automaton.h"
#include "ltl/ltl.h"
#include "relational/formula.h"

namespace rav {

// An LTL-FO sentence ∀z̄ φ_f (Definition 11) without global variables
// (they are eliminated by adding constant registers — see
// AddGlobalVariableRegisters): an LTL formula whose propositions are
// interpreted by quantifier-free FO formulas over x̄ ∪ ȳ and the schema's
// constants. Proposition p of `formula` is interpreted by
// `propositions[p]`.
struct LtlFoProperty {
  LtlFormula formula = LtlFormula::True();
  std::vector<Formula> propositions;
  std::vector<std::string> proposition_names;  // optional, same length
};

struct VerificationOptions {
  // The counterexample search's options. Its `governor` field (if set)
  // governs the whole verification: the strip pre-pass, guard refinement,
  // and product construction poll it too — a trip there surfaces as
  // ResourceExhausted, a trip during the search as a truncated verdict.
  EraEmptinessOptions emptiness;
  // Retained for compatibility; the verifier no longer completes the
  // automaton (it refines guards per proposition instead, which is
  // polynomial in the automaton for a fixed property).
  size_t max_completed_transitions = 1u << 20;
  // Run analysis::AnalyzeAndStrip on the automaton before refinement.
  // Dead structure admits no accepting run, so the verdict is unchanged;
  // a counterexample lasso then refers to the stripped-and-refined
  // automaton (the lasso was already internal to the refined one).
  bool analyze_and_strip = true;
};

struct VerificationResult {
  // The property holds on every run (within the counterexample search
  // bound when search_truncated is set).
  bool holds = false;
  // True iff no counterexample was found AND the search stopped on a
  // budget rather than exhausting its bounded space — "holds" is then
  // relative to the bound. Derived from search_stats.stop_reason.
  bool search_truncated = false;
  // When the property fails: a counterexample control lasso of the
  // completed automaton.
  std::optional<LassoWord> counterexample;
  // Statistics (benchmark E8).
  int ltl_closure_size = 0;
  int ltl_nba_states = 0;
  int product_states = 0;
  size_t lassos_tried = 0;
  // Instrumentation of the counterexample lasso search, including the
  // precise stop reason and worker count.
  SearchStats search_stats;
};

// Theorem 12: decides 𝒜 ⊨ φ_f for an extended automaton. The procedure
// refines every transition guard until it decides each proposition
// (splitting on the undetermined ones — the targeted alternative to the
// paper's full completion, exponentially cheaper on relational schemas),
// translates ¬φ into a Büchi automaton over AP valuations, products it
// with SControl(𝒜), and searches the product for a constraint-consistent
// accepting lasso — a counterexample run. Propositions must be literals
// or positive conjunctions of literals (Unimplemented otherwise).
Result<VerificationResult> VerifyLtlFo(const ExtendedAutomaton& era,
                                       const LtlFoProperty& property,
                                       const VerificationOptions& options = {});

// Step 1 of VerifyLtlFo: refines every transition of `era` so that each
// guard decides every proposition — transitions with undetermined
// propositions are split by the consistent truth assignments. This is the
// cheap, targeted alternative to full completion (which is exponential in
// the schema). `governor` may be null.
Result<ExtendedAutomaton> RefineForPropositions(
    const ExtendedAutomaton& era, const std::vector<Formula>& propositions,
    const ExecutionGovernor* governor);

// Helper for the global variables ∀z̄ of Definition 11: returns an
// extended automaton with `count` extra registers that every transition
// propagates unchanged (x_r = y_r), so each run fixes a valuation of z̄.
// Propositions may then reference z̄ᵢ as variable index 2·k' + ...; use
// GlobalVariableTermIndex for the mapping.
ExtendedAutomaton AddGlobalVariableRegisters(const ExtendedAutomaton& era,
                                             int count);

}  // namespace rav

#endif  // RAV_ERA_LTLFO_H_
