#include <gtest/gtest.h>

#include <random>

#include "relational/database.h"
#include "types/type.h"

namespace rav {
namespace {

Schema UnarySchema() {
  Schema s;
  s.AddRelation("P", 1);
  return s;
}

TEST(TypeBuilderTest, TrivialTypeIsSatisfiable) {
  Result<Type> t = TypeBuilder(4, 0).Build();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_classes(), 4);
}

TEST(TypeBuilderTest, DetectsEqualityContradiction) {
  TypeBuilder b(3, 0);
  b.AddEq(ElementIndex(0), ElementIndex(1))
      .AddEq(ElementIndex(1), ElementIndex(2))
      .AddNeq(ElementIndex(0), ElementIndex(2));
  EXPECT_FALSE(b.Build().ok());
}

TEST(TypeBuilderTest, DetectsAtomContradiction) {
  Schema s = UnarySchema();
  TypeBuilder b(2, 0);
  b.AddEq(ElementIndex(0), ElementIndex(1));
  b.AddAtom(0, {ElementIndex(0)}, true);
  b.AddAtom(0, {ElementIndex(1)}, false);
  EXPECT_FALSE(b.Build().ok());
}

TEST(TypeTest, CanonicalEqualityIgnoresLiteralOrder) {
  TypeBuilder b1(4, 0);
  b1.AddEq(ElementIndex(0), ElementIndex(1))
      .AddNeq(ElementIndex(2), ElementIndex(3));
  TypeBuilder b2(4, 0);
  b2.AddNeq(ElementIndex(3), ElementIndex(2))
      .AddEq(ElementIndex(1), ElementIndex(0))
      .AddEq(ElementIndex(0), ElementIndex(1));
  EXPECT_TRUE(b1.Build().value() == b2.Build().value());
}

TEST(TypeTest, TransitionLayoutHelpers) {
  Schema s;
  TypeBuilder b = TypeBuilder::ForTransition(2, s);
  // x2 = y2 in Example 1's δ2.
  b.AddEq(b.X(1), b.Y(1));
  Type t = b.Build().value();
  EXPECT_TRUE(t.AreEqual(1, 3));
  EXPECT_FALSE(t.AreEqual(0, 2));
}

TEST(TypeTest, HoldsEquality) {
  TypeBuilder b(4, 0);
  b.AddEq(ElementIndex(0), ElementIndex(1))
      .AddNeq(ElementIndex(1), ElementIndex(2));
  Type t = b.Build().value();
  EXPECT_TRUE(t.HoldsEquality({5, 5, 6, 0}));
  EXPECT_FALSE(t.HoldsEquality({5, 4, 6, 0}));  // forced equality broken
  EXPECT_FALSE(t.HoldsEquality({5, 5, 5, 0}));  // disequality broken
}

TEST(TypeTest, HoldsInWithRelationsAndConstants) {
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  ConstantId c = s.AddConstant("c");
  Database db(s);
  db.Insert(p, {7});
  db.SetConstant(c, 9);

  TypeBuilder b(2, 1);
  b.AddAtom(p, {ElementIndex(0)}, true);      // P(v0)
  b.AddAtom(p, {ElementIndex(1)}, false);     // ¬P(v1)
  b.AddEq(ElementIndex(1), ElementIndex(2));                // v1 = c
  Type t = b.Build().value();
  EXPECT_TRUE(t.HoldsIn(db, {7, 9}));
  EXPECT_FALSE(t.HoldsIn(db, {8, 9}));   // P(v0) fails
  EXPECT_FALSE(t.HoldsIn(db, {7, 8}));   // v1 = c fails
  db.Insert(p, {9});
  EXPECT_FALSE(t.HoldsIn(db, {7, 9}));   // ¬P(v1) fails
}

TEST(TypeTest, RestrictKeepsInducedLiterals) {
  // Variables v0..v3; v0=v1, v1≠v2, v2=v3. Restrict to {v0, v2}.
  TypeBuilder b(4, 0);
  b.AddEq(ElementIndex(0), ElementIndex(1))
      .AddNeq(ElementIndex(1), ElementIndex(2))
      .AddEq(ElementIndex(2), ElementIndex(3));
  Type t = b.Build().value();
  Type r = t.Restrict({true, false, true, false});
  EXPECT_EQ(r.num_vars(), 2);
  // v0 ≠ v2 survives (their classes both contain kept variables).
  EXPECT_TRUE(r.AreDistinct(0, 1));
}

TEST(TypeTest, RestrictDropsLiteralsOnDroppedClasses) {
  TypeBuilder b(3, 0);
  b.AddNeq(ElementIndex(0), ElementIndex(1));
  Type t = b.Build().value();
  Type r = t.Restrict({true, false, true});
  EXPECT_TRUE(r.disequalities().empty());
}

TEST(TypeTest, RestrictKeepsConstantAnchoredLiterals) {
  Schema s;
  s.AddConstant("c");
  // v0 = c, v1 ≠ c. Restrict away v1: v0 = c must survive,
  // v1 ≠ c must vanish.
  TypeBuilder b(2, 1);
  b.AddEq(ElementIndex(0), ElementIndex(2))
      .AddNeq(ElementIndex(1), ElementIndex(2));
  Type t = b.Build().value();
  Type r = t.Restrict({true, false});
  EXPECT_EQ(r.num_vars(), 1);
  EXPECT_TRUE(r.AreEqual(0, 1));  // v0 = const element
  EXPECT_TRUE(r.disequalities().empty());
}

TEST(TypeTest, FrontierCompatibilityExample1) {
  // δ1 = (x1=x2 ∧ x2=y2) followed by δ2 = (x2=y2): the y-part of δ1 puts
  // no constraint between y1 and y2, and the x-part of δ2 none between x1
  // and x2 — both restrict to the trivial type, so they are compatible.
  Schema s;
  TypeBuilder d1 = TypeBuilder::ForTransition(2, s);
  d1.AddEq(d1.X(0), d1.X(1)).AddEq(d1.X(1), d1.Y(1));
  TypeBuilder d2 = TypeBuilder::ForTransition(2, s);
  d2.AddEq(d2.X(1), d2.Y(1));
  EXPECT_TRUE(FrontierCompatible(d1.Build().value(), d2.Build().value(), 2));
}

TEST(TypeTest, FrontierIncompatibility) {
  Schema s;
  // δ with y1 = y2 followed by δ' with x1 ≠ x2: incompatible.
  TypeBuilder d1 = TypeBuilder::ForTransition(2, s);
  d1.AddEq(d1.Y(0), d1.Y(1));
  TypeBuilder d2 = TypeBuilder::ForTransition(2, s);
  d2.AddNeq(d2.X(0), d2.X(1));
  EXPECT_FALSE(FrontierCompatible(d1.Build().value(), d2.Build().value(), 2));
}

TEST(TypeTest, ConjoinMergesLiterals) {
  TypeBuilder b1(3, 0);
  b1.AddEq(ElementIndex(0), ElementIndex(1));
  TypeBuilder b2(3, 0);
  b2.AddNeq(ElementIndex(1), ElementIndex(2));
  Result<Type> c = b1.Build().value().Conjoin(b2.Build().value());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->AreEqual(0, 1));
  EXPECT_TRUE(c->AreDistinct(0, 2));
}

TEST(TypeTest, ConjoinDetectsContradiction) {
  TypeBuilder b1(2, 0);
  b1.AddEq(ElementIndex(0), ElementIndex(1));
  TypeBuilder b2(2, 0);
  b2.AddNeq(ElementIndex(0), ElementIndex(1));
  EXPECT_FALSE(b1.Build().value().Conjoin(b2.Build().value()).ok());
}

TEST(TypeTest, ConsistentWithAgreesWithConjoin) {
  // Random satisfiable types over 4 variables + 1 constant with a unary
  // and a binary relation: ConsistentWith must decide exactly
  // Conjoin(..).ok(), including clashes that appear only once the two
  // equality partitions merge.
  Schema schema;
  schema.AddRelation("P", 1);
  schema.AddRelation("E", 2);
  schema.AddConstant("c");
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> element(0, 4);
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> count(1, 7);
  auto random_type = [&] {
    for (;;) {
      TypeBuilder b(4, 1);
      for (int n = count(rng); n > 0; --n) {
        const ElementIndex e1(element(rng));
        const ElementIndex e2(element(rng));
        switch (kind(rng)) {
          case 0:
            b.AddEq(e1, e2);
            break;
          case 1:
            if (e1 != e2) b.AddNeq(e1, e2);
            break;
          case 2:
            b.AddAtom(0, {e1}, kind(rng) < 2);
            break;
          default:
            b.AddAtom(1, {e1, e2}, kind(rng) < 2);
            break;
        }
      }
      Result<Type> t = b.Build();
      if (t.ok()) return *t;
    }
  };
  int consistent = 0;
  for (int i = 0; i < 3000; ++i) {
    const Type a = random_type();
    const Type b = random_type();
    const bool want = a.Conjoin(b).ok();
    EXPECT_EQ(a.ConsistentWith(b), want)
        << a.ToString(schema) << " vs " << b.ToString(schema);
    consistent += want;
  }
  EXPECT_GT(consistent, 300);
  EXPECT_LT(consistent, 2700);
}

TEST(TypeTest, IsEqualityComplete) {
  TypeBuilder b(2, 0);
  b.AddNeq(ElementIndex(0), ElementIndex(1));
  EXPECT_TRUE(b.Build().value().IsEqualityComplete());
  TypeBuilder b2(2, 0);
  EXPECT_FALSE(b2.Build().value().IsEqualityComplete());
  TypeBuilder b3(2, 0);
  b3.AddEq(ElementIndex(0), ElementIndex(1));
  EXPECT_TRUE(b3.Build().value().IsEqualityComplete());
}

TEST(TypeTest, IsCompleteRequiresAllAtoms) {
  Schema s = UnarySchema();
  TypeBuilder b(2, 0);
  b.AddNeq(ElementIndex(0), ElementIndex(1))
      .AddAtom(0, {ElementIndex(0)}, true);
  EXPECT_FALSE(b.Build().value().IsComplete(s));
  TypeBuilder b2(2, 0);
  b2.AddNeq(ElementIndex(0), ElementIndex(1))
      .AddAtom(0, {ElementIndex(0)}, true)
      .AddAtom(0, {ElementIndex(1)}, false);
  EXPECT_TRUE(b2.Build().value().IsComplete(s));
}

TEST(TypeTest, EmbedTransitionPreservesStructure) {
  Schema s;
  TypeBuilder b = TypeBuilder::ForTransition(1, s);
  b.AddNeq(b.X(0), b.Y(0));
  Type t = b.Build().value();
  Type e = EmbedTransition(t, 1, 3);
  EXPECT_EQ(e.num_vars(), 6);
  // x1 ≠ y1 in the new layout: elements 0 and 3.
  EXPECT_TRUE(e.AreDistinct(0, 3));
  // New registers unconstrained.
  EXPECT_FALSE(e.AreEqual(1, 4));
  EXPECT_FALSE(e.AreDistinct(1, 4));
}

TEST(TypeTest, EvaluateOnCompleteType) {
  Schema s = UnarySchema();
  // k = 1: complete type x1 = y1, P(x1), P(y1).
  TypeBuilder b = TypeBuilder::ForTransition(1, s);
  b.AddEq(b.X(0), b.Y(0)).AddAtom(0, {b.X(0)}, true);
  Type t = b.Build().value();
  Formula eq = Formula::Eq(Term::Var(0), Term::Var(1));
  EXPECT_TRUE(EvaluateOnCompleteType(eq, t).value());
  Formula p_of_y = Formula::Rel(0, {Term::Var(1)});
  EXPECT_TRUE(EvaluateOnCompleteType(p_of_y, t).value());
  Formula not_p = Formula::Not(p_of_y);
  EXPECT_FALSE(EvaluateOnCompleteType(not_p, t).value());
}

TEST(TypeTest, EvaluateOnIncompleteTypeFails) {
  Schema s = UnarySchema();
  Type t = TypeBuilder::ForTransition(1, s).Build().value();
  Formula eq = Formula::Eq(Term::Var(0), Term::Var(1));
  EXPECT_FALSE(EvaluateOnCompleteType(eq, t).ok());
}

TEST(TypeTest, ToFormulaRoundTripsSemantics) {
  Schema s;
  Database db(s);
  TypeBuilder b(3, 0);
  b.AddEq(ElementIndex(0), ElementIndex(1))
      .AddNeq(ElementIndex(1), ElementIndex(2));
  Type t = b.Build().value();
  Formula f = t.ToFormula();
  EXPECT_TRUE(f.Eval(db, {4, 4, 5}));
  EXPECT_FALSE(f.Eval(db, {4, 5, 5}));
}

TEST(TypeTest, ToStringMentionsLiterals) {
  Schema s;
  TypeBuilder b = TypeBuilder::ForTransition(2, s);
  b.AddEq(b.X(0), b.X(1));
  std::string str = b.Build().value().ToString(s, 2);
  EXPECT_NE(str.find("x1 = x2"), std::string::npos);
}

}  // namespace
}  // namespace rav
