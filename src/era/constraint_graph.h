#ifndef RAV_ERA_CONSTRAINT_GRAPH_H_
#define RAV_ERA_CONSTRAINT_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "automata/lasso.h"
#include "era/extended_automaton.h"
#include "ra/control.h"

namespace rav {

// One live set of constraint-DFA runs parked between sweeps: every start
// position on the linked list [head .. tail] (indices into the closure's
// start-link pool) has driven constraint `constraint`'s DFA to
// `dfa_state` on the factor read so far. For equality constraints the
// list collapses to a single representative once the positions have
// been merged. Groups merge by splicing lists, so parking and resuming a
// sweep copies no start positions.
struct ClosureSweepGroup {
  int constraint = 0;
  int dfa_state = 0;
  int head = -1;
  int tail = -1;
};

// The arrays one closure owns. A closure built on a ClosureScratch
// borrows them from the scratch's pool and hands them back when it dies,
// so once a worker's scratch is warm a closure (in particular a refuted
// one) allocates nothing: every vector is refilled within its capacity.
struct ClosureStorage {
  LassoWord word;
  std::vector<int> parent;  // union-find forest; a root is its class's
                            // smallest node
  std::vector<char> node_in_adom;
  std::vector<std::pair<int, int>> raw_ineq;  // node pairs, with duplicates
  // Sweep state kept for ExtendedBy: the parked groups, ordered by
  // constraint, and the start-link pool their lists run through.
  std::vector<ClosureSweepGroup> sweep_groups;
  std::vector<int> link_pos;   // start position of a link
  std::vector<int> link_next;  // next link of the same group, -1 at tail
  // Canonical form, filled on first read (see ConstraintClosure).
  std::vector<int> class_of_node;
  std::vector<char> class_in_adom;
  std::vector<std::pair<int, int>> ineq_edges;  // class pairs, deduped
  // Canonicalization temporaries.
  std::vector<int> bucket_begin;
  std::vector<int> bucket_items;
  std::vector<int> stamp;
};

// Reusable per-thread scratch for closure construction. One instance per
// search worker (it lives inside LassoWorkerCounters) amortizes the
// per-candidate allocations of the sweep, and pools the closures' own
// arrays (ClosureStorage), across the whole search. It also tallies the
// era/closure/* counters of the closures built on it; the search flushes
// them once per search, and the destructor flushes whatever is left. Not
// thread-safe: each worker owns its own, and it must outlive every
// closure built or extended on it.
class ClosureScratch {
 public:
  ClosureScratch() = default;
  ~ClosureScratch() { FlushMetrics(); }
  ClosureScratch(const ClosureScratch&) = delete;
  ClosureScratch& operator=(const ClosureScratch&) = delete;

  // Adds the tallied era/closure/{built,extended,inconsistent} counts to
  // the process metrics and zeroes the tallies.
  void FlushMetrics();

 private:
  friend class ConstraintClosure;

  ClosureStorage TakeStorage() {
    if (free_storage_.empty()) return ClosureStorage();
    ClosureStorage out = std::move(free_storage_.back());
    free_storage_.pop_back();
    return out;
  }
  void ReturnStorage(ClosureStorage&& storage) {
    free_storage_.push_back(std::move(storage));
  }

  // Per-DFA-state group lists of the sweep's inner loop, double-buffered
  // (head -1 = no group at that state). Invariant between uses: every
  // head is -1. Sized to the largest constraint DFA seen.
  void EnsureStateBuffers(int num_states) {
    if (static_cast<size_t>(num_states) > head_[0].size()) {
      for (int side = 0; side < 2; ++side) {
        head_[side].resize(num_states, -1);
        tail_[side].resize(num_states, -1);
      }
    }
  }

  std::vector<ClosureStorage> free_storage_;
  std::vector<int> head_[2];
  std::vector<int> tail_[2];
  std::vector<int> occupied_[2];  // states with a group, insertion order
  std::vector<int> states_at_;    // control states of the sweep's positions
  std::vector<char> live_;        // per-constraint coreachable, as bytes
  std::vector<char> accept_;      // per-constraint accepting set, as bytes
  std::vector<int> start_state_of_q_;  // control state -> post-start state
  std::vector<ClosureSweepGroup> parked_groups_tmp_;

  // A transition type compiled to the node-level operations it induces at
  // a position: union pairs, disequality pairs, and adom marks, all as
  // type-element indices (alphabets without compiled guard tables only;
  // compiled alphabets carry these programs as compile::GuardOps).
  struct TypeProgram {
    std::vector<std::pair<int, int>> unions;
    std::vector<std::pair<int, int>> diseqs;
    std::vector<int> adom;
  };
  std::vector<int> program_of_symbol_;  // symbol -> index, -1 uncompiled
  std::vector<TypeProgram> programs_;   // pooled, reused across passes
  int programs_used_ = 0;
  std::vector<int> type_rep_;
  std::vector<int> element_nodes_;

  struct Tally {
    uint64_t built = 0;
    uint64_t extended = 0;
    uint64_t inconsistent = 0;
  };
  Tally tally_;
};

// The equivalence relation ~_w of Section 3 computed over a finite window
// of a symbolic control word, together with the induced inequality
// structure — the machinery behind Theorem 9 (quasi-regularity and
// witness synthesis), Corollary 10 (emptiness), and the projection
// constructions.
//
// Nodes are one node per constant symbol (a constant anchors equality
// across the whole run) followed by the register occurrences
// (position n < window, register i). The closure merges
//   * the equalities of each transition type δ_n,
//   * every Σ equality e=ᵢⱼ whose expression accepts q_n...q_m in the
//     window,
// and records inequality edges from the types' disequalities and from the
// Σ inequality constraints.
//
// The global constraints are resolved by a single forward sweep: per
// constraint, the live DFA runs are grouped by DFA state (start positions
// whose factors lead to the same state advance together), groups at
// states from which no accepting state is reachable are dropped, and an
// accepting group emits its edges in one pass — O(window · |Q_dfa|) per
// constraint instead of one DFA restart per start position.
//
// Consistency first, canonical form on demand: construction ends with
// one scan of the raw inequalities against the union-find, stopping at
// the first pair forced both equal and distinct, so consistent() is known
// as soon as the closure exists. The canonical form — dense class ids,
// adom flags, and the sorted, deduplicated class edges — is computed at
// most once, on the first call of an accessor that reads it (ClassOf,
// num_classes, ClassInAdom, NumAdomClasses, InequalityEdges and
// everything built on them), and is identical whenever it is read; a
// refuted candidate whose caller only asks consistent() never pays for
// it. Those accessors fill mutable fields, so a closure has a single
// reader: it must not be read from two threads at once until one read of
// the canonical form has completed.
//
// The window is a finite under-approximation of the infinite unrolling:
// any contradiction found is genuine; consistency is relative to the
// window (pump the cycle more for higher confidence — see
// SuggestedPumpCount). A closure can be grown in place of a rebuild with
// ExtendedBy, which resumes the sweep after the last position.
class ConstraintClosure {
 public:
  // Builds the closure over the first `window` positions of
  // `control_word` (which is copied). `scratch` (optional) amortizes
  // temporary allocations and the closure's own arrays across closures —
  // search workers pass their own, which must outlive the closure;
  // without one a per-thread instance supplies the temporaries and the
  // closure owns its arrays. `era` and `alphabet` must outlive the
  // closure.
  ConstraintClosure(const ExtendedAutomaton& era,
                    const ControlAlphabet& alphabet,
                    const LassoWord& control_word, size_t window,
                    ClosureScratch* scratch = nullptr);
  ~ConstraintClosure();
  ConstraintClosure(ConstraintClosure&& other) noexcept;
  ConstraintClosure& operator=(ConstraintClosure&& other) noexcept;
  ConstraintClosure(const ConstraintClosure&) = delete;
  ConstraintClosure& operator=(const ConstraintClosure&) = delete;

  // The closure of the same word over window() + extra_cycles · period
  // positions, computed by resuming this closure's sweep instead of
  // rebuilding from position 0. Identical (classes, edges, consistency)
  // to a from-scratch closure over the larger window. The lvalue form
  // copies this closure first; the rvalue form grows it in place, paying
  // only for the added positions and edges.
  ConstraintClosure ExtendedBy(size_t extra_cycles,
                               ClosureScratch* scratch = nullptr) const&;
  ConstraintClosure ExtendedBy(size_t extra_cycles,
                               ClosureScratch* scratch = nullptr) &&;

  size_t window() const { return window_; }
  int num_registers() const { return k_; }
  int num_constants() const { return num_constants_; }

  // Node ids: constants first (stable under ExtendedBy), then the
  // register occurrences in position-major order.
  int ConstantNode(int c) const { return c; }
  int NodeOf(size_t pos, int reg) const {
    return num_constants_ + static_cast<int>(pos) * k_ + reg;
  }
  int num_nodes() const {
    return num_constants_ + static_cast<int>(window_) * k_;
  }

  // True iff no forced-equal pair is forced-distinct within the window.
  bool consistent() const { return consistent_; }

  // For an inconsistent closure: the least w such that some forced-equal
  // pair forced distinct here has both nodes within the first w
  // positions. Every window shorter than w of the same word is
  // consistent — a contradiction there would be one of its inequalities
  // inside one class, and both persist into this wider window — so the
  // shortest refuted prefix is at least w (and often exactly w). One scan
  // of the raw inequalities; 0 for a consistent closure.
  size_t ConflictWindowLowerBound() const;

  // Dense class id of a node (classes canonicalized by smallest node).
  int ClassOf(int node) const;
  int num_classes() const {
    Canonicalize();
    return num_classes_;
  }

  // Class is in adom_w: one of its nodes occurs in a positive relational
  // literal (or is a constant).
  bool ClassInAdom(int class_id) const {
    Canonicalize();
    return s_.class_in_adom[class_id] != 0;
  }
  int NumAdomClasses() const;

  // Deduplicated inequality edges between distinct classes, sorted.
  const std::vector<std::pair<int, int>>& InequalityEdges() const {
    Canonicalize();
    return s_.ineq_edges;
  }

  // The graph G_w of Theorem 9: inequality edges between adom classes.
  std::vector<std::pair<int, int>> AdomInequalityEdges() const;

  // Exact maximum clique of G_w (Bron–Kerbosch); returns -1 if the adom
  // subgraph exceeds `max_nodes` (callers treat that as "too large").
  int AdomCliqueNumber(int max_nodes = 64) const;

  // Greedy coloring of G_w; entry per class (non-adom classes get 0).
  // Returns the colors and sets *num_colors.
  std::vector<int> GreedyAdomColoring(int* num_colors) const;

  // Approximate heap footprint of this closure, for governor memory
  // accounting (the per-node and per-edge arrays it has materialized;
  // not exact malloc bookkeeping). Scales linearly with window ·
  // registers, so a memory budget trips after boundedly many windows of
  // a given size.
  size_t ApproxBytes() const;

 private:
  // An empty closure over `window` positions with storage from `scratch`
  // (owned when null); the public constructor and ExtendedBy fill it.
  ConstraintClosure(const ExtendedAutomaton& era,
                    const ControlAlphabet& alphabet, size_t window,
                    ClosureScratch* scratch);

  // Union-find over the nodes with path halving, linking the larger root
  // under the smaller: every root is its class's smallest node. The
  // unions of a window mostly tie a fresh position to an earlier one, so
  // the fresh node hangs directly off an existing root and trees stay
  // flat; and canonical ids (by smallest node) fall out of one pass.
  // Node ids are in range by construction (the entry points check the
  // caller's word and window), so neither checks.
  int Find(int x) const {
    int* parent = s_.parent.data();
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a < b) {
      s_.parent[b] = a;
    } else if (b < a) {
      s_.parent[a] = b;
    }
  }
  // Appends `count` singleton nodes.
  void AddNodes(int count);

  // Applies the transition types of positions [from_pos, window_): full
  // types up to window_ - 2, the x̄-restricted type at the last position.
  // Each distinct symbol's program is replayed per position.
  void ApplyTypes(size_t from_pos, ClosureScratch& scratch);
  void ApplyOneType(const Type& type, const int* element_to_node,
                    ClosureScratch& scratch);
  // Compiles `type`'s per-position operations into element-index form.
  void CompileType(const Type& type, ClosureScratch& scratch,
                   ClosureScratch::TypeProgram& program);
  // Advances every constraint sweep over positions [from_pos, window_).
  void SweepConstraints(size_t from_pos, ClosureScratch& scratch);
  // consistent_ from one scan of the raw inequalities.
  void DecideConsistency();
  // Fills the canonical form if it has not been filled yet.
  void Canonicalize() const;

  const ExtendedAutomaton* era_;
  const ControlAlphabet* alphabet_;
  ClosureScratch* home_;  // pool the storage returns to; null if owned
  int k_;
  int num_constants_;
  size_t window_;
  bool consistent_ = true;
  // The canonical form of s_ and the union-find's path compression are
  // filled by const readers (the single-reader contract above).
  mutable bool canonical_ = false;
  mutable int num_classes_ = 0;
  mutable ClosureStorage s_;
};

// A pump count sufficient to expose the periodic constraint structure of
// the lasso: enough cycle repetitions that every constraint DFA re-enters
// a previously seen (phase, state) pair at least twice.
size_t SuggestedPumpCount(const ExtendedAutomaton& era);

}  // namespace rav

#endif  // RAV_ERA_CONSTRAINT_GRAPH_H_
