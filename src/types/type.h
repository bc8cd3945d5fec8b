#ifndef RAV_TYPES_TYPE_H_
#define RAV_TYPES_TYPE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/strong_id.h"
#include "base/union_find.h"
#include "base/value.h"
#include "relational/database.h"
#include "relational/formula.h"
#include "relational/schema.h"

namespace rav {

// A signed relational atom of a σ-type: R(e₁,...,e_m) or ¬R(e₁,...,e_m)
// where the eᵢ are *class ids* of the owning Type.
struct TypeAtom {
  RelationId relation = -1;
  std::vector<int> args;  // class ids
  bool positive = true;

  auto operator<=>(const TypeAtom&) const = default;
};

// A σ-type (Section 2 of the paper): a satisfiable conjunction of literals
// over a fixed set of *elements* — `num_vars` variables followed by
// `num_constants` constant symbols. For a transition type of a k-register
// automaton, num_vars = 2k with elements 0..k-1 = x̄ and k..2k-1 = ȳ.
//
// The representation is canonical rather than syntactic:
//   * a partition of the elements into equality classes (forced equalities),
//   * a set of disequalities between classes,
//   * a set of signed relational atoms over classes.
// Two types are operator== equal iff they are logically the same
// conjunction up to literal order and duplication. A Type is satisfiable by
// construction: use TypeBuilder to assemble one.
class Type {
 public:
  // The trivially-true type (no literals).
  Type(int num_vars, int num_constants);

  int num_vars() const { return num_vars_; }
  int num_constants() const { return num_constants_; }
  int num_elements() const { return num_vars_ + num_constants_; }
  // Element id of constant symbol c.
  int ConstantElement(ConstantId c) const { return num_vars_ + c; }

  // Number of equality classes.
  int num_classes() const { return num_classes_; }
  // Class id of element e (ids are dense, ordered by first occurrence).
  int ClassOf(int element) const;

  // The literals.
  const std::vector<std::pair<int, int>>& disequalities() const {
    return diseqs_;
  }
  const std::vector<TypeAtom>& atoms() const { return atoms_; }

  // True iff the type forces a = b (same class).
  bool AreEqual(int element_a, int element_b) const {
    return ClassOf(element_a) == ClassOf(element_b);
  }
  // True iff the type contains an explicit disequality a ≠ b.
  bool AreDistinct(int element_a, int element_b) const;

  // True iff every pair of classes with at least one variable-containing
  // side is separated by a disequality, and every class tuple has a signed
  // atom for every relation of `schema` — i.e. the type is complete in the
  // paper's sense.
  bool IsComplete(const Schema& schema) const;
  // Completeness of the equality part only (the relevant notion when the
  // schema has no relations).
  bool IsEqualityComplete() const;

  // Does the conjunction hold in `db` when variable i takes value
  // `var_values[i]`? Constant symbols are resolved through db.
  bool HoldsIn(const Database& db, const ValueTuple& var_values) const;

  // Equality-only variant for empty schemas (no relational atoms allowed,
  // no constants bound): checks equalities and disequalities only.
  bool HoldsEquality(const ValueTuple& var_values) const;

  // Existential-free syntactic restriction (the paper's δ|z̄): keeps exactly
  // the literals all of whose elements lie in a kept-variable class or a
  // constant class. keep_var.size() must equal num_vars(); kept variables
  // are renumbered 0..m-1 in order; constants are preserved.
  Type Restrict(const std::vector<bool>& keep_var) const;

  // Conjoins this type with `other` (same element space). Returns an error
  // if the conjunction is unsatisfiable.
  Result<Type> Conjoin(const Type& other) const;
  // Conjoin(other).ok() without building the conjunction: merges the two
  // equality partitions and looks only for a disequality inside a merged
  // class or a relational literal asserted with both signs.
  bool ConsistentWith(const Type& other) const;

  // True iff for every pair of elements both types agree on forced
  // equality, and literal-for-literal the types are the same conjunction.
  bool operator==(const Type& other) const;

  // Converts to an equivalent quantifier-free Formula (variables keep
  // their indices; class structure is expanded back into literals).
  Formula ToFormula() const;

  std::string ToString(const Schema& schema, int num_registers = -1) const;

  struct Hasher {
    size_t operator()(const Type& t) const;
  };

 private:
  friend class TypeBuilder;

  int num_vars_ = 0;
  int num_constants_ = 0;
  int num_classes_ = 0;
  std::vector<int> class_of_;                 // element -> class id
  std::vector<std::pair<int, int>> diseqs_;   // sorted (min,max) class pairs
  std::vector<TypeAtom> atoms_;               // sorted
};

// Incremental assembly of a Type with on-the-fly contradiction detection.
// Usage:
//   TypeBuilder b(/*num_vars=*/2*k, /*num_constants=*/c);
//   b.AddEq(0, 1); b.AddNeq(1, 3); b.AddAtom(rel, {0, 2}, true);
//   RAV_ASSIGN_OR_RETURN(Type t, b.Build());
class TypeBuilder {
 public:
  TypeBuilder(int num_vars, int num_constants);

  // Convenience: a builder for a transition type of a k-register automaton
  // over `schema` (2k variables plus the schema's constants).
  static TypeBuilder ForTransition(int k, const Schema& schema) {
    return TypeBuilder(2 * k, schema.num_constants());
  }

  // x-variable i (0-based register index) and y-variable i as element ids,
  // assuming the 2k-variable transition layout. The strong ElementIndex
  // return type is what keeps AddEq(X(i), Y(j)) un-swappable with the raw
  // register indices feeding it.
  ElementIndex X(int i) const { return ElementIndex(i); }
  ElementIndex Y(int i) const { return ElementIndex(num_vars_ / 2 + i); }
  ElementIndex Const(ConstantId c) const { return ElementIndex(num_vars_ + c); }

  // lhs/rhs are symmetric: both literals are unordered pairs.
  TypeBuilder& AddEq(ElementIndex lhs, ElementIndex rhs);
  TypeBuilder& AddNeq(ElementIndex lhs, ElementIndex rhs);
  TypeBuilder& AddAtom(RelationId relation, std::vector<ElementIndex> elements,
                       bool positive);

  // Conjoins all literals of `t` (over the same element space).
  TypeBuilder& AddAll(const Type& t);

  // Canonicalizes and checks satisfiability. InvalidArgument if the
  // conjunction is contradictory.
  Result<Type> Build() const;

 private:
  int num_vars_;
  int num_constants_;
  std::vector<std::pair<int, int>> eqs_;
  std::vector<std::pair<int, int>> neqs_;
  struct RawAtom {
    RelationId relation;
    std::vector<int> elements;
    bool positive;
  };
  std::vector<RawAtom> raw_atoms_;
};

// Embeds a transition type of a k_old-register automaton into the
// transition-variable layout of a k_new-register automaton (k_new ≥ k_old):
// xᵢ ↦ xᵢ, yᵢ ↦ yᵢ; the new registers are unconstrained.
Type EmbedTransition(const Type& delta, int k_old, int k_new);

// Evaluates a quantifier-free formula over x̄ ∪ ȳ (and the schema's
// constants) against a complete transition type: equality atoms are read
// off the class partition, relational atoms off the type's signed atoms.
// Fails if the type leaves a mentioned atom undetermined (the type is not
// complete enough to decide the formula).
Result<bool> EvaluateOnCompleteType(const Formula& formula, const Type& delta);

// The paper's frontier-compatibility condition on consecutive control
// symbols (condition (iii) of symbolic control traces): δ|ȳ and δ′|x̄ are
// isomorphic under yᵢ ↦ xᵢ. Both types must be transition types of a
// k-register automaton (2k variables).
bool FrontierCompatible(const Type& delta, const Type& delta_next, int k);

// δ restricted to x̄ (the paper's π₁(δ)): a type over k variables.
Type RestrictToX(const Type& delta, int k);
// δ restricted to ȳ, renamed so yᵢ becomes variable i: a type over k vars.
Type RestrictToYAsX(const Type& delta, int k);

}  // namespace rav

#endif  // RAV_TYPES_TYPE_H_
