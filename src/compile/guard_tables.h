#ifndef RAV_COMPILE_GUARD_TABLES_H_
#define RAV_COMPILE_GUARD_TABLES_H_

// The guard compilation layer (docs/compilation.md): each distinct
// transition guard of a spec is lowered once, at alphabet/compiled-spec
// build time, into a flat dense program over its 2k variables + schema
// constants, and candidate valuations are evaluated against the program —
// one at a time (Holds) or as an SoA batch in one branch-free pass over
// each instruction (EvalBatch). The interpreted Type::HoldsIn walk stays
// alive as the differential-testing reference behind GuardEngine, with the
// RAV_GUARD_TABLES=off escape hatch.
//
// This layer depends only on types/ + relational/ + base, so ra/ and era/
// can both consume it without cycles.

#include <cstddef>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "base/strong_id.h"
#include "base/value.h"
#include "relational/database.h"
#include "types/type.h"

namespace rav::compile {

// Which guard-evaluation engine a consumer runs with: kInterpreted walks
// the canonical Type per valuation (the reference), kCompiled replays the
// lowered table program, and the default
// kAuto resolves through the RAV_GUARD_TABLES environment variable —
// "off"/"0"/"interpreted" forces the interpreted path, anything else (or
// unset) selects the compiled one.
enum class GuardEngine {
  kInterpreted,
  kCompiled,
  kAuto,
};

// Stable name ("interpreted", "compiled", "auto") / its inverse.
const char* GuardEngineName(GuardEngine engine);
std::optional<GuardEngine> ParseGuardEngine(std::string_view name);
// Resolves kAuto through RAV_GUARD_TABLES; explicit engines pass through.
GuardEngine ResolveGuardEngine(GuardEngine requested);

// Per-worker compiled-evaluation tallies; owned by one thread, merged into
// SearchStats after the fact (era/guard/* metrics).
struct GuardStats {
  size_t evals = 0;    // valuations decided through compiled tables
  size_t batches = 0;  // SoA EvalBatch passes
};

// A guard's per-position closure operations in element-index form — the
// exact program ConstraintClosure's linear engine replays at every window
// position (see ClosureScratch::TypeProgram): union pairs (class
// representative, later element), disequality pairs between
// representatives, and adom marks from positive atoms. Precomputing them
// here removes the per-closure CompileType pass.
struct GuardOps {
  std::vector<std::pair<int, int>> unions;
  std::vector<std::pair<int, int>> diseqs;
  std::vector<int> adom;

  bool empty() const { return unions.empty() && diseqs.empty() && adom.empty(); }
  size_t bytes() const {
    return unions.capacity() * sizeof(std::pair<int, int>) +
           diseqs.capacity() * sizeof(std::pair<int, int>) +
           adom.capacity() * sizeof(int);
  }
};

// One signed relational literal of a guard's evaluation program, with its
// arguments as element indices (class representatives).
struct GuardAtom {
  RelationId relation = -1;
  bool positive = true;
  std::vector<int> arg_elements;
};

// Frontier classes of a list of items (guards or control symbols): the
// distinct x̄ restrictions and the distinct ȳ restrictions (renamed onto
// x̄), each interned by Type equality in first-use order, and the
// compatibility of every (ȳ-class, x̄-class) pair — δ|ȳ conjoinable with
// δ′|x̄, the frontier test SControl applies between consecutive control
// symbols. The test depends only on the two restrictions, so one
// Type::ConsistentWith per class pair decides it for every item pair.
class FrontierClasses {
 public:
  FrontierClasses() = default;

  // x_restricted[i] / y_restricted_as_x[i] are item i's restrictions, all
  // over one element space. The pointers are read during Build only.
  static FrontierClasses Build(
      const std::vector<const Type*>& x_restricted,
      const std::vector<const Type*>& y_restricted_as_x);

  int num_x_classes() const { return num_x_classes_; }
  int num_y_classes() const { return num_y_classes_; }
  XClassId x_class(int item) const { return x_class_[item]; }
  YClassId y_class(int item) const { return y_class_[item]; }
  // Can a symbol whose ȳ restriction is in class `before` be followed by
  // one whose x̄ restriction is in class `after`?
  bool Compatible(YClassId before, XClassId after) const {
    return compatible_[static_cast<size_t>(before.value()) * num_x_classes_ +
                       after.value()] != 0;
  }

  // Heap bytes of the class-id arrays and the compatibility matrix.
  size_t bytes() const {
    return x_class_.capacity() * sizeof(XClassId) +
           y_class_.capacity() * sizeof(YClassId) + compatible_.capacity();
  }

 private:
  std::vector<XClassId> x_class_;  // item -> x̄-class
  std::vector<YClassId> y_class_;  // item -> ȳ-class
  int num_x_classes_ = 0;
  int num_y_classes_ = 0;
  // [ȳ-class * num_x_classes_ + x̄-class] -> 1 iff conjoinable
  std::vector<unsigned char> compatible_;
};

// The compiled table set of one automaton's distinct guards. Build dedups
// the input guards by Type equality (hash-interned, first-use order — the
// same order RegisterAutomaton::DistinctGuards produces) and lowers each
// one into:
//   * its evaluation program: the GuardOps pairs double as equality /
//     disequality instructions over element values, plus the signed atoms,
//   * its x̄ / ȳ frontier restrictions and their frontier classes with the
//     class-pair compatibility matrix (shared by BuildSControlNba and the
//     lint strip passes — one consistency check per class pair for all),
//   * the x̄-restricted closure ops the incremental closure engine applies
//     at a window's last position.
// Immutable after Build; safe to share across search workers by const ref.
class GuardTableSet {
 public:
  GuardTableSet() = default;

  // `guards` are transition guards of a k-register automaton (2k vars,
  // `num_constants` schema constants). `id_of_input` (optional) receives
  // one dense guard id per input position.
  static GuardTableSet Build(const std::vector<const Type*>& guards, int k,
                             int num_constants,
                             std::vector<GuardId>* id_of_input = nullptr);

  int num_guards() const { return static_cast<int>(guards_.size()); }
  // The dense guard id space, iterable.
  IdRange<GuardId> GuardIds() const { return IdRange<GuardId>(num_guards()); }
  int num_registers() const { return k_; }
  int num_constants() const { return num_constants_; }

  const Type& guard(GuardId id) const { return guards_[id.value()]; }
  // RestrictToX(guard, k) / RestrictToYAsX(guard, k), precomputed.
  const Type& x_restricted(GuardId id) const {
    return x_restricted_[id.value()];
  }
  const Type& y_restricted_as_x(GuardId id) const {
    return y_restricted_[id.value()];
  }
  // The frontier classes of the guards (item i = guard id i).
  const FrontierClasses& frontier() const { return frontier_; }
  // Frontier compatibility of guard `before` followed by guard `after`:
  // y_restricted_as_x(before).Conjoin(x_restricted(after)).ok().
  bool Compatible(GuardId before, GuardId after) const {
    return frontier_.Compatible(frontier_.y_class(before.value()),
                                frontier_.x_class(after.value()));
  }

  // Closure ops of the full 2k-variable guard (elements 0..2k-1 then
  // constants) and of its x̄ restriction (elements 0..k-1 then constants).
  const GuardOps& closure_ops(GuardId id) const { return ops_[id.value()]; }
  const GuardOps& x_closure_ops(GuardId id) const {
    return x_ops_[id.value()];
  }
  const std::vector<GuardAtom>& atoms(GuardId id) const {
    return atoms_[id.value()];
  }

  // Approximate heap bytes of every table in the set, the frontier classes
  // included (governor-charged by the consumers that report it).
  size_t table_bytes() const { return table_bytes_; }

  // Evaluates guard `id` on one x̄·ȳ valuation (2k values). Observationally
  // identical to guard(id).HoldsIn(db, xy) — the differential tests hold
  // the two to it — without the per-call class-vector allocations.
  bool Holds(GuardId id, const DataValue* xy, const Database& db,
             GuardStats* stats = nullptr) const;

  // Batched SoA evaluation: `soa` holds `count` valuations element-major
  // (soa[e * count + i] is element e of valuation i, e < 2k), `ok` is the
  // in/out survivor mask (callers seed it with 1s; instructions clear
  // entries branch-free, atoms are checked per surviving valuation). One
  // pass per instruction over the whole batch — the inner loops
  // auto-vectorize over the register compares.
  void EvalBatch(GuardId id, const DataValue* soa, size_t count,
                 const Database& db, unsigned char* ok,
                 GuardStats* stats = nullptr) const;

 private:
  int k_ = 0;
  int num_constants_ = 0;
  std::vector<Type> guards_;
  std::vector<Type> x_restricted_;
  std::vector<Type> y_restricted_;
  std::vector<GuardOps> ops_;
  std::vector<GuardOps> x_ops_;
  std::vector<std::vector<GuardAtom>> atoms_;
  FrontierClasses frontier_;
  size_t table_bytes_ = 0;
};

// A borrowed view tying an automaton's transitions to a compiled table
// set: guard_id_of_transition[ti] is the table id of transition ti's
// guard. Null `tables` means "interpreted" — consumers fall back to
// Type::HoldsIn. Both pointers must outlive the view's uses.
struct TransitionGuardView {
  const GuardTableSet* tables = nullptr;
  const GuardId* guard_id_of_transition = nullptr;

  explicit operator bool() const { return tables != nullptr; }
};

}  // namespace rav::compile

#endif  // RAV_COMPILE_GUARD_TABLES_H_
