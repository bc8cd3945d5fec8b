#include <gtest/gtest.h>

#include "automata/regex.h"
#include "enhanced/enhanced_automaton.h"
#include "io/text_format.h"
#include "ra/simulate.h"

namespace rav {
namespace {

constexpr char kExample1[] = R"(
# Example 1 of the paper.
automaton {
  registers 2
  state q1 initial final
  state q2
  transition q1 -> q2 { x1 = x2  x2 = y2 }
  transition q2 -> q2 { x2 = y2 }
  transition q2 -> q1 { x2 = y2  y1 = y2 }
}
)";

constexpr char kWithSchema[] = R"(
automaton {
  registers 1
  schema { relation P/1 relation E/2 constant c }
  state q initial final
  transition q -> q { P(x1)  !E(x1, y1)  x1 != c }
}
)";

constexpr char kExample5[] = R"(
automaton {
  registers 1
  state p1 initial final
  state p2
  transition p1 -> p2 { }
  transition p2 -> p2 { }
  transition p2 -> p1 { }
  constraint eq 1 1 "p1 p2* p1"
}
)";

TEST(TextFormatTest, ParsesExample1) {
  auto a = ParseRegisterAutomaton(kExample1);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->num_registers(), 2);
  EXPECT_EQ(a->num_states(), 2);
  EXPECT_EQ(a->num_transitions(), 3);
  EXPECT_TRUE(a->IsInitial(a->FindState("q1")));
  EXPECT_TRUE(a->IsFinal(a->FindState("q1")));
  // δ1 forces x1 = x2.
  const Type& d1 = a->transition(0).guard;
  EXPECT_TRUE(d1.AreEqual(0, 1));
  EXPECT_TRUE(d1.AreEqual(1, 3));
}

TEST(TextFormatTest, ParsesSchemaLiteralsAndConstants) {
  auto era = ParseExtendedAutomaton(kWithSchema);
  ASSERT_TRUE(era.ok()) << era.status().ToString();
  const RegisterAutomaton& a = era->automaton();
  EXPECT_EQ(a.schema().num_relations(), 2);
  EXPECT_EQ(a.schema().num_constants(), 1);
  const Type& guard = a.transition(0).guard;
  EXPECT_EQ(guard.atoms().size(), 2u);
  EXPECT_TRUE(guard.AreDistinct(0, guard.ConstantElement(0)));
}

TEST(TextFormatTest, ParsesConstraints) {
  auto era = ParseExtendedAutomaton(kExample5);
  ASSERT_TRUE(era.ok()) << era.status().ToString();
  ASSERT_EQ(era->constraints().size(), 1u);
  EXPECT_TRUE(era->constraints()[0].is_equality);
  EXPECT_EQ(era->constraints()[0].i, RegisterId(0));
}

TEST(TextFormatTest, RejectsPlainParseWithConstraints) {
  EXPECT_FALSE(ParseRegisterAutomaton(kExample5).ok());
}

TEST(TextFormatTest, ErrorsCarryLineAndColumn) {
  auto bad = ParseRegisterAutomaton("automaton {\n  registers 1\n  bogus\n}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("(3:3)"), std::string::npos);
}

TEST(TextFormatTest, RecordsDeclarationLocations) {
  auto era = ParseExtendedAutomaton(
      "automaton {\n"
      "  registers 1\n"
      "  state q1 initial final\n"
      "  state q2\n"
      "  transition q1 -> q2 { }\n"
      "  transition q2 -> q1 { }\n"
      "  constraint eq 1 1 \"q1 q2* q1\"\n"
      "}\n");
  ASSERT_TRUE(era.ok());
  const RegisterAutomaton& a = era->automaton();
  EXPECT_EQ(a.state_location(StateId(0)), (SourceLocation{3, 3}));
  EXPECT_EQ(a.state_location(StateId(1)), (SourceLocation{4, 3}));
  EXPECT_EQ(a.transition_location(0), (SourceLocation{5, 3}));
  EXPECT_EQ(a.transition_location(1), (SourceLocation{6, 3}));
  ASSERT_EQ(era->constraints().size(), 1u);
  EXPECT_EQ(era->constraints()[0].loc, (SourceLocation{7, 3}));
}

TEST(TextFormatTest, RejectsBadRegisterIndex) {
  auto bad = ParseRegisterAutomaton(
      "automaton { registers 1 state q initial final "
      "transition q -> q { x2 = y1 } }");
  EXPECT_FALSE(bad.ok());
}

TEST(TextFormatTest, RejectsUnknownState) {
  auto bad = ParseRegisterAutomaton(
      "automaton { registers 1 state q initial final "
      "transition q -> r { } }");
  EXPECT_FALSE(bad.ok());
}

// Fuzz-found: these used to abort (RAV_CHECK / uncaught std::out_of_range)
// instead of returning a parse error.
TEST(TextFormatTest, RejectsDuplicateSchemaNames) {
  auto dup_rel = ParseRegisterAutomaton(
      "automaton { registers 1 schema { relation r/1 relation r/2 } "
      "state q initial final transition q -> q { x1 = y1 } }");
  EXPECT_FALSE(dup_rel.ok());
  auto dup_const = ParseRegisterAutomaton(
      "automaton { registers 1 schema { constant c constant c } "
      "state q initial final transition q -> q { x1 = y1 } }");
  EXPECT_FALSE(dup_const.ok());
}

TEST(TextFormatTest, RejectsOutOfRangeNumbers) {
  auto bad = ParseRegisterAutomaton(
      "automaton { registers 99999999999999999999 state q initial final "
      "transition q -> q { x1 = y1 } }");
  EXPECT_FALSE(bad.ok());
}

// Fuzz-found: an overlong register index threw std::out_of_range out of
// the parser (one request killed rav_serve), and a letter tail after the
// index was dropped silently ("x1abc" read as "x1").
TEST(TextFormatTest, RejectsMalformedRegisterTerms) {
  for (const char* term : {"x99999999999", "x1abc", "y2147483648"}) {
    SCOPED_TRACE(term);
    auto bad = ParseRegisterAutomaton(
        std::string("automaton { registers 1 state q initial final "
                    "transition q -> q { ") +
        term + " = y1 } }");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find(term), std::string::npos)
        << bad.status().message();
  }
}

TEST(TextFormatTest, RejectsUnsatisfiableGuard) {
  auto bad = ParseRegisterAutomaton(
      "automaton { registers 1 state q initial final "
      "transition q -> q { x1 = y1  x1 != y1 } }");
  EXPECT_FALSE(bad.ok());
}

TEST(TextFormatTest, RoundTrip) {
  auto a = ParseRegisterAutomaton(kExample1);
  ASSERT_TRUE(a.ok());
  std::string printed = ToTextFormat(*a);
  auto reparsed = ParseRegisterAutomaton(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << printed;
  EXPECT_EQ(reparsed->num_states(), a->num_states());
  EXPECT_EQ(reparsed->num_transitions(), a->num_transitions());
  for (int ti = 0; ti < a->num_transitions(); ++ti) {
    EXPECT_TRUE(reparsed->transition(ti).guard == a->transition(ti).guard);
  }
}

TEST(TextFormatTest, RoundTripWithSchemaAndConstraints) {
  auto era = ParseExtendedAutomaton(kWithSchema);
  ASSERT_TRUE(era.ok());
  auto reparsed = ParseExtendedAutomaton(ToTextFormat(*era));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed->automaton().transition(0).guard ==
              era->automaton().transition(0).guard);

  // Extended round trip: the regex is preserved via its description.
  auto era5 = ParseExtendedAutomaton(kExample5);
  ASSERT_TRUE(era5.ok());
  auto reparsed5 = ParseExtendedAutomaton(ToTextFormat(*era5));
  ASSERT_TRUE(reparsed5.ok()) << reparsed5.status().ToString();
  EXPECT_EQ(reparsed5->constraints().size(), 1u);
}

TEST(TextFormatTest, ParsedAutomatonRuns) {
  auto a = ParseRegisterAutomaton(kExample1);
  ASSERT_TRUE(a.ok());
  Database db{Schema()};
  size_t runs = EnumerateRuns(*a, db, 3, {0, 1},
                              [](const FiniteRun&) { return true; });
  EXPECT_GT(runs, 0u);
}

TEST(TextFormatTest, EnhancedAutomatonRendering) {
  // Build a tiny enhanced automaton and render it: equality constraints
  // become parseable lines, tuple/finiteness constraints become annotated
  // comments.
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), q);
  EnhancedAutomaton enhanced(a);
  auto r = Regex::Parse("q q", [](const std::string& n) {
    return n == "q" ? 0 : -1;
  });
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(enhanced
                  .AddEqualityConstraint(
                      RegisterPair{RegisterId(0), RegisterId(0)}, r->ToDfa(1),
                      "")
                  .ok());
  TupleInequalityConstraint c;
  c.pair_dfa = r->ToDfa(1);
  c.regs_a = {0};
  c.offs_a = {0};
  c.regs_b = {0};
  c.offs_b = {0};
  ASSERT_TRUE(enhanced.AddTupleConstraint(std::move(c)).ok());
  FinitenessConstraint fc;
  fc.reg = 0;
  fc.selector = r->ToDfa(1);
  ASSERT_TRUE(enhanced.AddFinitenessConstraint(std::move(fc)).ok());

  std::string text = ToTextFormat(enhanced);
  EXPECT_NE(text.find("constraint eq 1 1"), std::string::npos);
  EXPECT_NE(text.find("# tuple-ineq"), std::string::npos);
  EXPECT_NE(text.find("# finiteness r1"), std::string::npos);
}

TEST(GraphvizTest, RendersStatesAndEdges) {
  auto a = ParseRegisterAutomaton(kExample1);
  ASSERT_TRUE(a.ok());
  std::string dot = ToGraphviz(*a);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"q1\" -> \"q2\""), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

}  // namespace
}  // namespace rav
