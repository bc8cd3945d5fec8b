#include "types/type.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "base/hash.h"
#include "base/numbers.h"

namespace rav {

namespace {

// Element display name for ToString / ToFormula diagnostics.
std::string ElementName(int element, int num_vars, int num_constants,
                        const Schema& schema, int num_registers) {
  if (element >= num_vars) {
    (void)num_constants;
    return schema.constant_name(element - num_vars);
  }
  if (num_registers > 0 && num_vars == 2 * num_registers) {
    if (element < num_registers) return IndexedName("x", element + 1);
    return IndexedName("y", element - num_registers + 1);
  }
  return IndexedName("v", element);
}

}  // namespace

Type::Type(int num_vars, int num_constants)
    : num_vars_(num_vars), num_constants_(num_constants) {
  RAV_CHECK_GE(num_vars, 0);
  RAV_CHECK_GE(num_constants, 0);
  num_classes_ = num_vars + num_constants;
  class_of_.resize(num_classes_);
  for (int i = 0; i < num_classes_; ++i) class_of_[i] = i;
}

int Type::ClassOf(int element) const {
  RAV_CHECK_GE(element, 0);
  RAV_CHECK_LT(static_cast<size_t>(element), class_of_.size());
  return class_of_[element];
}

bool Type::AreDistinct(int element_a, int element_b) const {
  int ca = ClassOf(element_a);
  int cb = ClassOf(element_b);
  if (ca == cb) return false;
  auto key = std::minmax(ca, cb);
  return std::binary_search(diseqs_.begin(), diseqs_.end(),
                            std::make_pair(key.first, key.second));
}

bool Type::IsEqualityComplete() const {
  // Which classes contain a variable?
  std::vector<bool> has_var(num_classes_, false);
  for (int e = 0; e < num_vars_; ++e) has_var[class_of_[e]] = true;
  for (int c1 = 0; c1 < num_classes_; ++c1) {
    for (int c2 = c1 + 1; c2 < num_classes_; ++c2) {
      if (!has_var[c1] && !has_var[c2]) continue;  // const-const: optional
      if (!std::binary_search(diseqs_.begin(), diseqs_.end(),
                              std::make_pair(c1, c2))) {
        return false;
      }
    }
  }
  return true;
}

bool Type::IsComplete(const Schema& schema) const {
  if (!IsEqualityComplete()) return false;
  // Atoms are canonical & deduplicated, so per-relation coverage of all
  // class tuples reduces to a count comparison.
  std::vector<size_t> per_relation(schema.num_relations(), 0);
  for (const TypeAtom& a : atoms_) {
    RAV_CHECK_GE(a.relation, 0);
    RAV_CHECK_LT(a.relation, schema.num_relations());
    ++per_relation[a.relation];
  }
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    double expected = std::pow(static_cast<double>(num_classes_),
                               static_cast<double>(schema.arity(r)));
    if (static_cast<double>(per_relation[r]) != expected) return false;
  }
  return true;
}

bool Type::HoldsIn(const Database& db, const ValueTuple& var_values) const {
  RAV_CHECK_EQ(static_cast<int>(var_values.size()), num_vars_);
  // Element values: variables from the valuation, constants from db.
  std::vector<DataValue> value_of_class(num_classes_, 0);
  std::vector<bool> seen(num_classes_, false);
  auto element_value = [&](int e) -> DataValue {
    return e < num_vars_ ? var_values[e] : db.constant(e - num_vars_);
  };
  for (int e = 0; e < num_elements(); ++e) {
    int c = class_of_[e];
    DataValue v = element_value(e);
    if (!seen[c]) {
      seen[c] = true;
      value_of_class[c] = v;
    } else if (value_of_class[c] != v) {
      return false;  // forced equality violated
    }
  }
  for (const auto& [c1, c2] : diseqs_) {
    if (value_of_class[c1] == value_of_class[c2]) return false;
  }
  for (const TypeAtom& a : atoms_) {
    ValueTuple args;
    args.reserve(a.args.size());
    for (int c : a.args) args.push_back(value_of_class[c]);
    if (db.Contains(a.relation, args) != a.positive) return false;
  }
  return true;
}

bool Type::HoldsEquality(const ValueTuple& var_values) const {
  RAV_CHECK(atoms_.empty());
  RAV_CHECK_EQ(num_constants_, 0);
  RAV_CHECK_EQ(static_cast<int>(var_values.size()), num_vars_);
  std::vector<DataValue> value_of_class(num_classes_, 0);
  std::vector<bool> seen(num_classes_, false);
  for (int e = 0; e < num_vars_; ++e) {
    int c = class_of_[e];
    if (!seen[c]) {
      seen[c] = true;
      value_of_class[c] = var_values[e];
    } else if (value_of_class[c] != var_values[e]) {
      return false;
    }
  }
  for (const auto& [c1, c2] : diseqs_) {
    if (value_of_class[c1] == value_of_class[c2]) return false;
  }
  return true;
}

Type Type::Restrict(const std::vector<bool>& keep_var) const {
  RAV_CHECK_EQ(static_cast<int>(keep_var.size()), num_vars_);
  // Renumber kept variables 0..m-1 in original order.
  std::vector<int> new_var_id(num_vars_, -1);
  int m = 0;
  for (int v = 0; v < num_vars_; ++v) {
    if (keep_var[v]) new_var_id[v] = m++;
  }
  // A class survives iff it contains a kept variable or a constant.
  // Collect, per old class, the new elements it contains.
  std::vector<std::vector<int>> members(num_classes_);
  for (int v = 0; v < num_vars_; ++v) {
    if (keep_var[v]) members[class_of_[v]].push_back(new_var_id[v]);
  }
  for (int c = 0; c < num_constants_; ++c) {
    members[class_of_[num_vars_ + c]].push_back(m + c);
  }

  TypeBuilder builder(m, num_constants_);
  std::vector<int> survivor_rep(num_classes_, -1);
  for (int c = 0; c < num_classes_; ++c) {
    if (members[c].empty()) continue;
    survivor_rep[c] = members[c][0];
    for (size_t i = 1; i < members[c].size(); ++i) {
      builder.AddEq(ElementIndex(members[c][0]), ElementIndex(members[c][i]));
    }
  }
  for (const auto& [c1, c2] : diseqs_) {
    if (survivor_rep[c1] >= 0 && survivor_rep[c2] >= 0) {
      builder.AddNeq(ElementIndex(survivor_rep[c1]),
                     ElementIndex(survivor_rep[c2]));
    }
  }
  for (const TypeAtom& a : atoms_) {
    std::vector<ElementIndex> elems;
    elems.reserve(a.args.size());
    bool all_survive = true;
    for (int c : a.args) {
      if (survivor_rep[c] < 0) {
        all_survive = false;
        break;
      }
      elems.push_back(ElementIndex(survivor_rep[c]));
    }
    if (all_survive) builder.AddAtom(a.relation, std::move(elems), a.positive);
  }
  Result<Type> result = builder.Build();
  RAV_CHECK(result.ok());  // restriction of a satisfiable type is satisfiable
  return std::move(result).value();
}

Result<Type> Type::Conjoin(const Type& other) const {
  RAV_CHECK_EQ(num_vars_, other.num_vars_);
  RAV_CHECK_EQ(num_constants_, other.num_constants_);
  TypeBuilder builder(num_vars_, num_constants_);
  builder.AddAll(*this);
  builder.AddAll(other);
  return builder.Build();
}

bool Type::ConsistentWith(const Type& other) const {
  RAV_CHECK_EQ(num_vars_, other.num_vars_);
  RAV_CHECK_EQ(num_constants_, other.num_constants_);
  // Union-find over this type's classes, merged along `other`'s: via[c] is
  // a class of this type that other-class c meets. One buffer for both.
  std::vector<int> buffer(num_classes_ + other.num_classes_);
  int* const parent = buffer.data();
  int* const via = parent + num_classes_;
  std::iota(parent, via, 0);
  std::fill(via, via + other.num_classes_, -1);
  auto find = [&](int c) {
    while (parent[c] != c) c = parent[c] = parent[parent[c]];
    return c;
  };
  for (int e = 0; e < num_elements(); ++e) {
    int& v = via[other.class_of_[e]];
    const int c = find(class_of_[e]);
    if (v < 0) {
      v = c;
    } else {
      parent[c] = find(v);
    }
  }
  // Merged class of a class of this type / of `other`.
  auto root_this = [&](int c) { return find(c); };
  auto root_other = [&](int c) { return find(via[c]); };
  auto diseq_clash = [](const Type& t, const auto& root) {
    for (const auto& [c1, c2] : t.diseqs_) {
      if (root(c1) == root(c2)) return true;
    }
    return false;
  };
  if (diseq_clash(*this, root_this) || diseq_clash(other, root_other)) {
    return false;
  }
  if (atoms_.empty() && other.atoms_.empty()) return true;
  // Atoms keyed by (relation, merged-class args), sorted so that a key
  // asserted with both signs — by one type once its classes merged, or by
  // the two types together — sits in adjacent entries.
  std::vector<std::pair<std::pair<RelationId, std::vector<int>>, bool>> keyed;
  keyed.reserve(atoms_.size() + other.atoms_.size());
  auto add_atoms = [&](const Type& t, const auto& root) {
    for (const TypeAtom& a : t.atoms_) {
      std::vector<int> args;
      args.reserve(a.args.size());
      for (int c : a.args) args.push_back(root(c));
      keyed.push_back({{a.relation, std::move(args)}, a.positive});
    }
  };
  add_atoms(*this, root_this);
  add_atoms(other, root_other);
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first == keyed[i - 1].first &&
        keyed[i].second != keyed[i - 1].second) {
      return false;
    }
  }
  return true;
}

bool Type::operator==(const Type& other) const {
  return num_vars_ == other.num_vars_ &&
         num_constants_ == other.num_constants_ &&
         class_of_ == other.class_of_ && diseqs_ == other.diseqs_ &&
         atoms_ == other.atoms_;
}

Formula Type::ToFormula() const {
  std::vector<Formula> parts;
  auto term_of = [&](int element) {
    return element < num_vars_ ? Term::Var(element)
                               : Term::Const(element - num_vars_);
  };
  // One representative element per class (first occurrence).
  std::vector<int> rep(num_classes_, -1);
  for (int e = 0; e < num_elements(); ++e) {
    int c = class_of_[e];
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      parts.push_back(Formula::Eq(term_of(rep[c]), term_of(e)));
    }
  }
  for (const auto& [c1, c2] : diseqs_) {
    parts.push_back(Formula::Neq(term_of(rep[c1]), term_of(rep[c2])));
  }
  for (const TypeAtom& a : atoms_) {
    std::vector<Term> args;
    args.reserve(a.args.size());
    for (int c : a.args) args.push_back(term_of(rep[c]));
    Formula atom = Formula::Rel(a.relation, std::move(args));
    parts.push_back(a.positive ? atom : Formula::Not(atom));
  }
  return Formula::AndAll(parts);
}

std::string Type::ToString(const Schema& schema, int num_registers) const {
  std::vector<std::string> parts;
  std::vector<int> rep(num_classes_, -1);
  auto name = [&](int e) {
    return ElementName(e, num_vars_, num_constants_, schema, num_registers);
  };
  for (int e = 0; e < num_elements(); ++e) {
    int c = class_of_[e];
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      parts.push_back(name(rep[c]) + " = " + name(e));
    }
  }
  for (const auto& [c1, c2] : diseqs_) {
    parts.push_back(name(rep[c1]) + " ≠ " + name(rep[c2]));
  }
  for (const TypeAtom& a : atoms_) {
    std::string s = a.positive ? "" : "¬";
    s += schema.relation_name(a.relation);
    s += "(";
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (i > 0) s += ", ";
      s += name(rep[a.args[i]]);
    }
    s += ")";
    parts.push_back(std::move(s));
  }
  if (parts.empty()) return "⊤";
  std::string out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) out += " ∧ " + parts[i];
  return out;
}

size_t Type::Hasher::operator()(const Type& t) const {
  size_t seed = 0;
  HashCombineValue(seed, t.num_vars_);
  HashCombineValue(seed, t.num_constants_);
  for (int c : t.class_of_) HashCombineValue(seed, c);
  for (const auto& [a, b] : t.diseqs_) {
    HashCombineValue(seed, a);
    HashCombineValue(seed, b);
  }
  for (const TypeAtom& atom : t.atoms_) {
    HashCombineValue(seed, atom.relation);
    HashCombineValue(seed, atom.positive);
    for (int c : atom.args) HashCombineValue(seed, c);
  }
  return seed;
}

// ---------------------------------------------------------------------------
// TypeBuilder

TypeBuilder::TypeBuilder(int num_vars, int num_constants)
    : num_vars_(num_vars), num_constants_(num_constants) {
  RAV_CHECK_GE(num_vars, 0);
  RAV_CHECK_GE(num_constants, 0);
}

TypeBuilder& TypeBuilder::AddEq(ElementIndex lhs, ElementIndex rhs) {
  eqs_.emplace_back(lhs.value(), rhs.value());
  return *this;
}

TypeBuilder& TypeBuilder::AddNeq(ElementIndex lhs, ElementIndex rhs) {
  neqs_.emplace_back(lhs.value(), rhs.value());
  return *this;
}

TypeBuilder& TypeBuilder::AddAtom(RelationId relation,
                                  std::vector<ElementIndex> elements,
                                  bool positive) {
  RawAtom atom{relation, {}, positive};
  atom.elements.reserve(elements.size());
  for (ElementIndex e : elements) atom.elements.push_back(e.value());
  raw_atoms_.push_back(std::move(atom));
  return *this;
}

TypeBuilder& TypeBuilder::AddAll(const Type& t) {
  RAV_CHECK_EQ(t.num_vars(), num_vars_);
  RAV_CHECK_EQ(t.num_constants(), num_constants_);
  // Equalities: first element of each class is the representative.
  std::vector<int> rep(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      AddEq(ElementIndex(rep[c]), ElementIndex(e));
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    AddNeq(ElementIndex(rep[c1]), ElementIndex(rep[c2]));
  }
  for (const TypeAtom& a : t.atoms()) {
    std::vector<ElementIndex> elems;
    elems.reserve(a.args.size());
    for (int c : a.args) elems.push_back(ElementIndex(rep[c]));
    AddAtom(a.relation, std::move(elems), a.positive);
  }
  return *this;
}

Result<Type> TypeBuilder::Build() const {
  const int n = num_vars_ + num_constants_;
  auto check_element = [&](int e) {
    RAV_CHECK_GE(e, 0);
    RAV_CHECK_LT(e, n);
  };

  UnionFind uf(n);
  for (const auto& [a, b] : eqs_) {
    check_element(a);
    check_element(b);
    uf.Union(a, b);
  }

  // Canonical class ids by first occurrence.
  std::vector<int> class_of(n, -1);
  std::vector<int> root_to_class(n, -1);
  int num_classes = 0;
  for (int e = 0; e < n; ++e) {
    int root = uf.Find(e);
    if (root_to_class[root] < 0) root_to_class[root] = num_classes++;
    class_of[e] = root_to_class[root];
  }

  // Disequalities.
  std::vector<std::pair<int, int>> diseqs;
  for (const auto& [a, b] : neqs_) {
    check_element(a);
    check_element(b);
    int ca = class_of[a];
    int cb = class_of[b];
    if (ca == cb) {
      return Status::InvalidArgument(
          "unsatisfiable type: elements forced both equal and distinct");
    }
    diseqs.emplace_back(std::min(ca, cb), std::max(ca, cb));
  }
  std::sort(diseqs.begin(), diseqs.end());
  diseqs.erase(std::unique(diseqs.begin(), diseqs.end()), diseqs.end());

  // Atoms: canonicalize args to classes; detect sign conflicts.
  std::map<std::pair<RelationId, std::vector<int>>, bool> atom_signs;
  for (const RawAtom& a : raw_atoms_) {
    std::vector<int> args;
    args.reserve(a.elements.size());
    for (int e : a.elements) {
      check_element(e);
      args.push_back(class_of[e]);
    }
    auto key = std::make_pair(a.relation, std::move(args));
    auto [it, inserted] = atom_signs.emplace(std::move(key), a.positive);
    if (!inserted && it->second != a.positive) {
      return Status::InvalidArgument(
          "unsatisfiable type: contradictory relational literals");
    }
  }
  std::vector<TypeAtom> atoms;
  atoms.reserve(atom_signs.size());
  for (const auto& [key, positive] : atom_signs) {
    atoms.push_back(TypeAtom{key.first, key.second, positive});
  }
  std::sort(atoms.begin(), atoms.end());

  Type t(num_vars_, num_constants_);
  t.num_classes_ = num_classes;
  t.class_of_ = std::move(class_of);
  t.diseqs_ = std::move(diseqs);
  t.atoms_ = std::move(atoms);
  return t;
}

// ---------------------------------------------------------------------------
// Embedding and formula evaluation

Type EmbedTransition(const Type& delta, int k_old, int k_new) {
  RAV_CHECK_EQ(delta.num_vars(), 2 * k_old);
  RAV_CHECK_GE(k_new, k_old);
  TypeBuilder builder(2 * k_new, delta.num_constants());
  // Element mapping old -> new: x_i -> i, y_i -> k_new + i, constants shift.
  auto map_element = [&](int e) {
    if (e < k_old) return e;
    if (e < 2 * k_old) return k_new + (e - k_old);
    return 2 * k_new + (e - 2 * k_old);
  };
  std::vector<int> rep(delta.num_classes(), -1);
  for (int e = 0; e < delta.num_elements(); ++e) {
    int c = delta.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      builder.AddEq(ElementIndex(map_element(rep[c])),
                    ElementIndex(map_element(e)));
    }
  }
  for (const auto& [c1, c2] : delta.disequalities()) {
    builder.AddNeq(ElementIndex(map_element(rep[c1])),
                   ElementIndex(map_element(rep[c2])));
  }
  for (const TypeAtom& a : delta.atoms()) {
    std::vector<ElementIndex> elems;
    elems.reserve(a.args.size());
    for (int c : a.args) elems.push_back(ElementIndex(map_element(rep[c])));
    builder.AddAtom(a.relation, std::move(elems), a.positive);
  }
  Result<Type> out = builder.Build();
  RAV_CHECK(out.ok());
  return std::move(out).value();
}

Result<bool> EvaluateOnCompleteType(const Formula& formula,
                                    const Type& delta) {
  switch (formula.op()) {
    case Formula::Op::kTrue:
      return true;
    case Formula::Op::kFalse:
      return false;
    case Formula::Op::kEq: {
      Term a = formula.lhs();
      Term b = formula.rhs();
      auto element_of = [&](const Term& t) {
        return t.is_variable() ? t.index : delta.num_vars() + t.index;
      };
      int ea = element_of(a);
      int eb = element_of(b);
      if (ea >= delta.num_elements() || eb >= delta.num_elements()) {
        return Status::InvalidArgument(
            "EvaluateOnCompleteType: variable out of range");
      }
      if (delta.AreEqual(ea, eb)) return true;
      if (delta.AreDistinct(ea, eb)) return false;
      return Status::FailedPrecondition(
          "EvaluateOnCompleteType: equality undetermined by the type");
    }
    case Formula::Op::kRel: {
      std::vector<int> classes;
      classes.reserve(formula.args().size());
      for (const Term& t : formula.args()) {
        int e = t.is_variable() ? t.index : delta.num_vars() + t.index;
        if (e >= delta.num_elements()) {
          return Status::InvalidArgument(
              "EvaluateOnCompleteType: variable out of range");
        }
        classes.push_back(delta.ClassOf(e));
      }
      for (const TypeAtom& a : delta.atoms()) {
        if (a.relation == formula.relation() && a.args == classes) {
          return a.positive;
        }
      }
      return Status::FailedPrecondition(
          "EvaluateOnCompleteType: relational atom undetermined by the type");
    }
    case Formula::Op::kNot: {
      RAV_ASSIGN_OR_RETURN(bool v,
                           EvaluateOnCompleteType(formula.children()[0], delta));
      return !v;
    }
    case Formula::Op::kAnd: {
      for (const Formula& c : formula.children()) {
        RAV_ASSIGN_OR_RETURN(bool v, EvaluateOnCompleteType(c, delta));
        if (!v) return false;
      }
      return true;
    }
    case Formula::Op::kOr: {
      for (const Formula& c : formula.children()) {
        RAV_ASSIGN_OR_RETURN(bool v, EvaluateOnCompleteType(c, delta));
        if (v) return true;
      }
      return false;
    }
  }
  RAV_CHECK(false);
  return false;
}

// ---------------------------------------------------------------------------
// Frontier operations

Type RestrictToX(const Type& delta, int k) {
  RAV_CHECK_EQ(delta.num_vars(), 2 * k);
  std::vector<bool> keep(2 * k, false);
  for (int i = 0; i < k; ++i) keep[i] = true;
  return delta.Restrict(keep);
}

Type RestrictToYAsX(const Type& delta, int k) {
  RAV_CHECK_EQ(delta.num_vars(), 2 * k);
  std::vector<bool> keep(2 * k, false);
  for (int i = 0; i < k; ++i) keep[k + i] = true;
  return delta.Restrict(keep);
}

bool FrontierCompatible(const Type& delta, const Type& delta_next, int k) {
  return RestrictToYAsX(delta, k) == RestrictToX(delta_next, k);
}

}  // namespace rav
