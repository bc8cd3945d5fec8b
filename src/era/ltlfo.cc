#include "era/ltlfo.h"

#include <queue>

#include "analysis/lint.h"
#include "base/flat_map.h"
#include "base/hash.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "ltl/tableau.h"
#include "ra/transform.h"

namespace rav {

namespace {

// Conjoins a proposition (or its negation) onto a transition-type
// builder. Supports literals and positively-signed conjunctions of
// literals — the shapes quantifier-free LTL-FO propositions take in
// practice. Returns FailedPrecondition when the requested sign cannot be
// expressed as a conjunction of literals.
Status AddFormulaAsLiterals(TypeBuilder& builder, const Formula& formula,
                            bool positive, int k) {
  auto element_of = [&](const Term& t) {
    return t.is_variable() ? t.index : 2 * k + t.index;
  };
  switch (formula.op()) {
    case Formula::Op::kTrue:
      if (!positive) {
        return Status::FailedPrecondition("branch infeasible: ¬true");
      }
      return Status::OK();
    case Formula::Op::kFalse:
      if (positive) {
        return Status::FailedPrecondition("branch infeasible: false");
      }
      return Status::OK();
    case Formula::Op::kEq: {
      ElementIndex a(element_of(formula.lhs()));
      ElementIndex b(element_of(formula.rhs()));
      if (positive) {
        builder.AddEq(a, b);
      } else {
        builder.AddNeq(a, b);
      }
      return Status::OK();
    }
    case Formula::Op::kRel: {
      std::vector<ElementIndex> elements;
      for (const Term& t : formula.args()) {
        elements.push_back(ElementIndex(element_of(t)));
      }
      builder.AddAtom(formula.relation(), std::move(elements), positive);
      return Status::OK();
    }
    case Formula::Op::kNot:
      return AddFormulaAsLiterals(builder, formula.children()[0], !positive,
                                  k);
    case Formula::Op::kAnd:
      if (!positive) {
        return Status::Unimplemented(
            "VerifyLtlFo: negated conjunction propositions are not "
            "literal-expressible; rewrite the proposition");
      }
      for (const Formula& c : formula.children()) {
        RAV_RETURN_IF_ERROR(AddFormulaAsLiterals(builder, c, true, k));
      }
      return Status::OK();
    case Formula::Op::kOr:
      return Status::Unimplemented(
          "VerifyLtlFo: disjunctive propositions are not "
          "literal-expressible; split them into separate propositions");
  }
  RAV_CHECK(false);
  return Status::Internal("unreachable");
}

}  // namespace

Result<ExtendedAutomaton> RefineForPropositions(
    const ExtendedAutomaton& era, const std::vector<Formula>& propositions,
    const ExecutionGovernor* governor) {
  const RegisterAutomaton& a = era.automaton();
  const int k = a.num_registers();
  RegisterAutomaton refined(k, a.schema());
  for (StateId s : a.States()) {
    StateId id = refined.AddState(a.state_name(s));
    RAV_CHECK_EQ(id.value(), s.value());
    refined.SetInitial(s, a.IsInitial(s));
    refined.SetFinal(s, a.IsFinal(s));
  }
  const size_t num_props = propositions.size();
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    // One transition may split into up to 2^16 refined guards, so the
    // per-transition boundary is the safe point here.
    RAV_RETURN_IF_ERROR(GovernorCheckStatus(governor, "VerifyLtlFo: refine"));
    const RaTransition& t = a.transition(ti);
    // Which propositions does the guard leave undetermined?
    std::vector<size_t> undetermined;
    for (size_t p = 0; p < num_props; ++p) {
      if (!EvaluateOnCompleteType(propositions[p], t.guard).ok()) {
        undetermined.push_back(p);
      }
    }
    if (undetermined.empty()) {
      refined.AddTransition(t.from, t.guard, t.to);
      continue;
    }
    if (undetermined.size() > 16) {
      return Status::ResourceExhausted(
          "VerifyLtlFo: too many undetermined propositions per guard");
    }
    for (uint32_t assignment = 0;
         assignment < (uint32_t{1} << undetermined.size()); ++assignment) {
      TypeBuilder builder(2 * k, a.schema().num_constants());
      builder.AddAll(t.guard);
      bool feasible = true;
      for (size_t i = 0; i < undetermined.size() && feasible; ++i) {
        bool sign = (assignment >> i) & 1;
        Status status = AddFormulaAsLiterals(
            builder, propositions[undetermined[i]], sign, k);
        if (status.code() == StatusCode::kFailedPrecondition) {
          feasible = false;
        } else if (!status.ok()) {
          return status;
        }
      }
      if (!feasible) continue;
      Result<Type> guard = builder.Build();
      if (!guard.ok()) continue;  // contradictory branch
      // The branch may still leave a proposition undetermined (e.g. an
      // inequality added as ≠ between classes the relational atoms don't
      // mention); re-check and skip such branches defensively.
      bool decided = true;
      for (size_t i = 0; i < undetermined.size() && decided; ++i) {
        decided =
            EvaluateOnCompleteType(propositions[undetermined[i]], *guard)
                .ok();
      }
      if (!decided) {
        return Status::Internal(
            "VerifyLtlFo: proposition still undetermined after refinement");
      }
      refined.AddTransition(t.from, std::move(guard).value(), t.to);
    }
  }
  ExtendedAutomaton out(std::move(refined));
  for (const GlobalConstraint& c : era.constraints()) {
    RAV_RETURN_IF_ERROR(
        out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality, c.dfa,
                             c.description));
  }
  return out;
}

Result<VerificationResult> VerifyLtlFo(const ExtendedAutomaton& era,
                                       const LtlFoProperty& property,
                                       const VerificationOptions& options) {
  (void)options.max_completed_transitions;
  RAV_TRACE_SPAN("era/ltlfo");
  RAV_METRIC_COUNT("era/ltlfo/verifications", 1);
  const ExecutionGovernor* governor = options.emptiness.governor;
  if (options.analyze_and_strip) {
    // The floor rides on the emptiness options, which govern the
    // counterexample search the strip feeds.
    const analysis::StripEffort effort =
        era.automaton().num_transitions() >=
                options.emptiness.min_flow_strip_transitions
            ? analysis::StripEffort::kFlow
            : analysis::StripEffort::kFast;
    analysis::StripResult stripped =
        analysis::AnalyzeAndStrip(era, effort, governor);
    if (stripped.changed()) {
      RAV_METRIC_COUNT("era/ltlfo/strips", 1);
      VerificationOptions inner = options;
      inner.analyze_and_strip = false;
      // Pin the automatic pump to the original constraint list (guard
      // refinement preserves constraints, so this matches the unstripped
      // path exactly).
      if (inner.emptiness.pump == 0) {
        inner.emptiness.pump = SuggestedPumpCount(era);
      }
      return VerifyLtlFo(*stripped.era, property, inner);
    }
  }
  // 1. Refine the automaton so each control symbol decides every
  //    proposition (targeted splitting instead of full completion).
  Result<ExtendedAutomaton> refined_result = [&] {
    RAV_TRACE_SPAN("refine");
    return RefineForPropositions(era, property.propositions, governor);
  }();
  RAV_ASSIGN_OR_RETURN(ExtendedAutomaton refined, std::move(refined_result));
  const ExtendedAutomaton* subject = &refined;
  const RegisterAutomaton& a = subject->automaton();
  ControlAlphabet alphabet(a);

  // 2. Truth of each proposition per control symbol.
  const int num_props = static_cast<int>(property.propositions.size());
  if (property.formula.MaxApIndex() >= num_props) {
    return Status::InvalidArgument(
        "VerifyLtlFo: formula references an uninterpreted proposition");
  }
  std::vector<uint32_t> ap_mask(alphabet.size(), 0);
  for (int s = 0; s < alphabet.size(); ++s) {
    for (int p = 0; p < num_props; ++p) {
      RAV_ASSIGN_OR_RETURN(
          bool truth,
          EvaluateOnCompleteType(property.propositions[p],
                                 alphabet.guard_of(SymbolId(s))));
      if (truth) ap_mask[s] |= uint32_t{1} << p;
    }
  }

  // 3. Büchi automaton of ¬φ over AP valuations.
  Result<LtlAutomaton> neg_result = [&] {
    RAV_TRACE_SPAN("tableau");
    return LtlToNba(LtlFormula::Not(property.formula), num_props);
  }();
  RAV_ASSIGN_OR_RETURN(LtlAutomaton neg, std::move(neg_result));
  RAV_METRIC_RECORD("era/ltlfo/nba_states", neg.nba.num_states());

  // 4. Product with SControl over the control alphabet. Charged per
  //    interned product state and polled per expanded one: the product is
  //    where a hostile property formula blows up.
  ScopedMemoryCharge product_charge(governor);
  Result<Nba> product_result = [&]() -> Result<Nba> {
    RAV_TRACE_SPAN("product");
    Nba scontrol = BuildSControlNba(a, alphabet);
    GeneralizedNba product(alphabet.size(), 2);
    FlatIdMap<std::pair<int, int>, PairHash<int, int>> ids;
    std::queue<int> work;
    auto intern = [&](int sc, int lt) {
      auto [id, inserted] = ids.Intern(std::make_pair(sc, lt));
      if (!inserted) return id;
      RAV_CHECK_EQ(product.AddState(), id);
      product_charge.Add(sizeof(std::pair<int, int>) + 48);
      if (scontrol.IsAccepting(sc)) product.AddToAcceptSet(0, id);
      if (neg.nba.IsAccepting(lt)) product.AddToAcceptSet(1, id);
      work.push(id);
      return id;
    };
    for (int sc : scontrol.initial()) {
      for (int lt : neg.nba.initial()) {
        product.SetInitial(intern(sc, lt));
      }
    }
    while (!work.empty()) {
      RAV_RETURN_IF_ERROR(GovernorCheckStatus(governor, "VerifyLtlFo: product"));
      int id = work.front();
      work.pop();
      auto [sc, lt] = ids.KeyOf(id);
      for (const auto& [symbol, sc2] : scontrol.TransitionsFrom(sc)) {
        for (const auto& [ap, lt2] : neg.nba.TransitionsFrom(lt)) {
          if (static_cast<uint32_t>(ap) != ap_mask[symbol]) continue;
          product.AddTransition(id, symbol, intern(sc2, lt2));
        }
      }
    }
    return product.Degeneralize();
  }();
  RAV_ASSIGN_OR_RETURN(Nba product_nba, std::move(product_result));
  RAV_METRIC_RECORD("era/ltlfo/product_states", product_nba.num_states());

  // 5. Search for a constraint-consistent counterexample lasso.
  EraEmptinessResult search = SearchConsistentLasso(
      *subject, alphabet, product_nba, options.emptiness);

  if (search.nonempty) RAV_METRIC_COUNT("era/ltlfo/counterexamples", 1);

  VerificationResult out;
  out.holds = !search.nonempty;
  out.search_truncated = search.search_truncated;
  if (search.nonempty) out.counterexample = search.control_word;
  out.ltl_closure_size = neg.closure_size;
  out.ltl_nba_states = neg.nba.num_states();
  out.product_states = product_nba.num_states();
  out.lassos_tried = search.lassos_tried;
  out.search_stats = search.stats;
  return out;
}

ExtendedAutomaton AddGlobalVariableRegisters(const ExtendedAutomaton& era,
                                             int count) {
  const RegisterAutomaton& a = era.automaton();
  const int k = a.num_registers();
  const int k_new = k + count;
  RegisterAutomaton b(k_new, a.schema());
  for (StateId s : a.States()) {
    StateId id = b.AddState(a.state_name(s));
    RAV_CHECK_EQ(id.value(), s.value());
    b.SetInitial(s, a.IsInitial(s));
    b.SetFinal(s, a.IsFinal(s));
  }
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    TypeBuilder builder(2 * k_new, a.schema().num_constants());
    builder.AddAll(EmbedTransition(t.guard, k, k_new));
    for (int r = k; r < k_new; ++r) {
      // x_r = y_r: the value never changes
      builder.AddEq(ElementIndex(r), ElementIndex(k_new + r));
    }
    Result<Type> guard = builder.Build();
    RAV_CHECK(guard.ok());
    b.AddTransition(t.from, std::move(guard).value(), t.to);
  }
  ExtendedAutomaton out(std::move(b));
  for (const GlobalConstraint& c : era.constraints()) {
    Status s = out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality,
                                    c.dfa, c.description);
    RAV_CHECK(s.ok());
  }
  return out;
}

}  // namespace rav
