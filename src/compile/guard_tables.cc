#include "compile/guard_tables.h"

#include <cstdlib>

#include "base/flat_map.h"
#include "base/logging.h"

namespace rav::compile {

const char* GuardEngineName(GuardEngine engine) {
  switch (engine) {
    case GuardEngine::kInterpreted:
      return "interpreted";
    case GuardEngine::kCompiled:
      return "compiled";
    case GuardEngine::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<GuardEngine> ParseGuardEngine(std::string_view name) {
  if (name == "interpreted") return GuardEngine::kInterpreted;
  if (name == "compiled") return GuardEngine::kCompiled;
  if (name == "auto") return GuardEngine::kAuto;
  return std::nullopt;
}

GuardEngine ResolveGuardEngine(GuardEngine requested) {
  if (requested != GuardEngine::kAuto) return requested;
  // The escape hatch: RAV_GUARD_TABLES=off reverts every kAuto consumer to
  // the interpreted reference without a rebuild (docs/compilation.md).
  const char* env = std::getenv("RAV_GUARD_TABLES");
  if (env != nullptr) {
    const std::string_view v(env);
    if (v == "off" || v == "0" || v == "interpreted") {
      return GuardEngine::kInterpreted;
    }
  }
  return GuardEngine::kCompiled;
}

namespace {

// A borrowed Type hashed and compared by value: the FlatIdMap key that
// interns Types (first-use order) without copying them. The Type must
// outlive the map.
struct TypeRef {
  const Type* type;
  bool operator==(const TypeRef& other) const { return *type == *other.type; }
};
struct TypeRefHash {
  size_t operator()(const TypeRef& ref) const {
    return Type::Hasher()(*ref.type);
  }
};
using TypeInterner = FlatIdMap<TypeRef, TypeRefHash>;

// Lowers one type into its closure/eval ops: union pairs (first element of
// each class, later element), diseq pairs between first elements, adom
// marks of positive-atom argument classes — the same instruction stream
// ConstraintClosure::CompileType derives per closure, now computed once.
// `rep` is reused scratch; returns the per-class representative elements.
void LowerOps(const Type& t, std::vector<int>& rep, GuardOps& ops) {
  rep.assign(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    const int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      ops.unions.emplace_back(rep[c], e);
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    ops.diseqs.emplace_back(rep[c1], rep[c2]);
  }
  for (const TypeAtom& a : t.atoms()) {
    if (!a.positive) continue;
    for (int c : a.args) ops.adom.push_back(rep[c]);
  }
}

}  // namespace

FrontierClasses FrontierClasses::Build(
    const std::vector<const Type*>& x_restricted,
    const std::vector<const Type*>& y_restricted_as_x) {
  RAV_CHECK_EQ(x_restricted.size(), y_restricted_as_x.size());
  FrontierClasses classes;
  TypeInterner x_ids;
  TypeInterner y_ids;
  classes.x_class_.reserve(x_restricted.size());
  classes.y_class_.reserve(y_restricted_as_x.size());
  for (size_t i = 0; i < x_restricted.size(); ++i) {
    classes.x_class_.push_back(
        XClassId(x_ids.Intern({x_restricted[i]}).first));
    classes.y_class_.push_back(
        YClassId(y_ids.Intern({y_restricted_as_x[i]}).first));
  }
  classes.num_x_classes_ = static_cast<int>(x_ids.size());
  classes.num_y_classes_ = static_cast<int>(y_ids.size());
  // Row per ȳ-class, column per x̄-class, each decided on the class's
  // first-use representative.
  classes.compatible_.reserve(x_ids.size() * y_ids.size());
  for (const TypeRef& before : y_ids.Keys()) {
    for (const TypeRef& after : x_ids.Keys()) {
      classes.compatible_.push_back(
          before.type->ConsistentWith(*after.type) ? 1 : 0);
    }
  }
  return classes;
}

GuardTableSet GuardTableSet::Build(const std::vector<const Type*>& guards,
                                   int k, int num_constants,
                                   std::vector<GuardId>* id_of_input) {
  GuardTableSet set;
  set.k_ = k;
  set.num_constants_ = num_constants;
  if (id_of_input != nullptr) {
    id_of_input->clear();
    id_of_input->reserve(guards.size());
  }
  std::vector<int> rep;
  // Keys borrow the input guards, which outlive the loop.
  TypeInterner guard_ids;
  for (const Type* g : guards) {
    RAV_CHECK(g != nullptr);
    RAV_CHECK_EQ(g->num_vars(), 2 * k);
    RAV_CHECK_EQ(g->num_constants(), num_constants);
    const auto [id, fresh] = guard_ids.Intern({g});
    if (fresh) {
      set.guards_.push_back(*g);
      set.x_restricted_.push_back(RestrictToX(*g, k));
      set.y_restricted_.push_back(RestrictToYAsX(*g, k));
      GuardOps& ops = set.ops_.emplace_back();
      LowerOps(*g, rep, ops);
      // The evaluation atoms (both signs) over the same representatives.
      std::vector<GuardAtom>& atoms = set.atoms_.emplace_back();
      for (const TypeAtom& a : g->atoms()) {
        GuardAtom& atom = atoms.emplace_back();
        atom.relation = a.relation;
        atom.positive = a.positive;
        atom.arg_elements.reserve(a.args.size());
        for (int c : a.args) atom.arg_elements.push_back(rep[c]);
      }
      GuardOps& x_ops = set.x_ops_.emplace_back();
      LowerOps(set.x_restricted_[id], rep, x_ops);
    }
    if (id_of_input != nullptr) id_of_input->push_back(GuardId(id));
  }
  {
    std::vector<const Type*> x_restricted;
    std::vector<const Type*> y_restricted;
    x_restricted.reserve(set.guards_.size());
    y_restricted.reserve(set.guards_.size());
    for (int id = 0; id < set.num_guards(); ++id) {
      x_restricted.push_back(&set.x_restricted_[id]);
      y_restricted.push_back(&set.y_restricted_[id]);
    }
    set.frontier_ = FrontierClasses::Build(x_restricted, y_restricted);
  }
  set.table_bytes_ = set.frontier_.bytes();
  for (int id = 0; id < set.num_guards(); ++id) {
    set.table_bytes_ += set.ops_[id].bytes() + set.x_ops_[id].bytes();
    for (const GuardAtom& a : set.atoms_[id]) {
      set.table_bytes_ += sizeof(GuardAtom) +
                          a.arg_elements.capacity() * sizeof(int);
    }
    // Rough footprint of the retained Types (class map + literal lists).
    set.table_bytes_ +=
        3 * sizeof(Type) +
        static_cast<size_t>(set.guards_[id].num_elements() +
                            set.x_restricted_[id].num_elements() +
                            set.y_restricted_[id].num_elements()) *
            sizeof(int);
  }
  return set;
}

bool GuardTableSet::Holds(GuardId id, const DataValue* xy, const Database& db,
                          GuardStats* stats) const {
  if (stats != nullptr) ++stats->evals;
  const int two_k = 2 * k_;
  auto value_of = [&](int e) -> DataValue {
    return e < two_k ? xy[e] : db.constant(e - two_k);
  };
  const GuardOps& ops = ops_[id.value()];
  // The union pairs are exactly "every element equals its class's first
  // element", so conjoining them decides the same forced equalities as
  // HoldsIn's first-seen walk; diseqs and atoms read the representatives.
  for (const auto& [a, b] : ops.unions) {
    if (value_of(a) != value_of(b)) return false;
  }
  for (const auto& [a, b] : ops.diseqs) {
    if (value_of(a) == value_of(b)) return false;
  }
  if (!atoms_[id.value()].empty()) {
    ValueTuple args;
    for (const GuardAtom& atom : atoms_[id.value()]) {
      args.clear();
      args.reserve(atom.arg_elements.size());
      for (int e : atom.arg_elements) args.push_back(value_of(e));
      if (db.Contains(atom.relation, args) != atom.positive) return false;
    }
  }
  return true;
}

void GuardTableSet::EvalBatch(GuardId id, const DataValue* soa, size_t count,
                              const Database& db, unsigned char* ok,
                              GuardStats* stats) const {
  if (stats != nullptr) {
    ++stats->batches;
    stats->evals += count;
  }
  if (count == 0) return;
  const int two_k = 2 * k_;
  const GuardOps& ops = ops_[id.value()];
  auto row = [&](int e) { return soa + static_cast<size_t>(e) * count; };
  auto constant_of = [&](int e) { return db.constant(e - two_k); };
  // One pass over the batch per instruction. Register-register compares
  // are the common case and vectorize; a constant operand broadcasts.
  for (const auto& [a, b] : ops.unions) {
    if (a < two_k && b < two_k) {
      const DataValue* ra = row(a);
      const DataValue* rb = row(b);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(ra[i] == rb[i]);
      }
    } else if (a < two_k || b < two_k) {
      const DataValue* r = row(a < two_k ? a : b);
      const DataValue c = constant_of(a < two_k ? b : a);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(r[i] == c);
      }
    } else if (constant_of(a) != constant_of(b)) {
      for (size_t i = 0; i < count; ++i) ok[i] = 0;
      return;
    }
  }
  for (const auto& [a, b] : ops.diseqs) {
    if (a < two_k && b < two_k) {
      const DataValue* ra = row(a);
      const DataValue* rb = row(b);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(ra[i] != rb[i]);
      }
    } else if (a < two_k || b < two_k) {
      const DataValue* r = row(a < two_k ? a : b);
      const DataValue c = constant_of(a < two_k ? b : a);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(r[i] != c);
      }
    } else if (constant_of(a) == constant_of(b)) {
      for (size_t i = 0; i < count; ++i) ok[i] = 0;
      return;
    }
  }
  if (atoms_[id.value()].empty()) return;
  // Relational atoms go through the database per surviving valuation —
  // they cannot be a flat compare, but the (in)equality instructions above
  // have already thinned the batch.
  ValueTuple args;
  for (size_t i = 0; i < count; ++i) {
    if (!ok[i]) continue;
    for (const GuardAtom& atom : atoms_[id.value()]) {
      args.clear();
      args.reserve(atom.arg_elements.size());
      for (int e : atom.arg_elements) {
        args.push_back(e < two_k ? soa[static_cast<size_t>(e) * count + i]
                                 : constant_of(e));
      }
      if (db.Contains(atom.relation, args) != atom.positive) {
        ok[i] = 0;
        break;
      }
    }
  }
}

}  // namespace rav::compile
