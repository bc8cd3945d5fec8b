#include "era/constraint_graph.h"

#include <algorithm>

#include "base/metrics.h"

namespace rav {

namespace {

// Callers that don't thread a ClosureScratch (one-off closures, the
// containment checks) fall back to a per-thread instance so they still
// amortize the sweep buffers instead of reallocating them per closure.
ClosureScratch& ThreadLocalClosureScratch() {
  thread_local ClosureScratch scratch;
  return scratch;
}

// Sequential reader of a lasso word's symbols from a start position: one
// modulo at construction instead of one per SymbolAt call. Reading past
// the prefix of a cycle-less word is the caller's error (as with
// SymbolAt).
class SymbolCursor {
 public:
  SymbolCursor(const LassoWord& w, size_t pos) : w_(w), pos_(pos) {
    if (pos_ >= w.prefix.size() && !w.cycle.empty()) {
      cyc_ = (pos_ - w.prefix.size()) % w.cycle.size();
    }
  }

  int Next() {
    if (pos_ < w_.prefix.size()) {
      return w_.prefix[pos_++];
    }
    ++pos_;
    const int s = w_.cycle[cyc_];
    if (++cyc_ == w_.cycle.size()) cyc_ = 0;
    return s;
  }

 private:
  const LassoWord& w_;
  size_t pos_;
  size_t cyc_ = 0;
};

}  // namespace

void ClosureScratch::FlushMetrics() {
  if (tally_.built > 0) RAV_METRIC_COUNT("era/closure/built", tally_.built);
  if (tally_.extended > 0) {
    RAV_METRIC_COUNT("era/closure/extended", tally_.extended);
  }
  if (tally_.inconsistent > 0) {
    RAV_METRIC_COUNT("era/closure/inconsistent", tally_.inconsistent);
  }
  tally_ = Tally();
}

ConstraintClosure::ConstraintClosure(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     size_t window, ClosureScratch* scratch)
    : era_(&era),
      alphabet_(&alphabet),
      home_(scratch),
      k_(era.automaton().num_registers()),
      num_constants_(era.automaton().schema().num_constants()),
      window_(window) {
  if (home_ != nullptr) s_ = home_->TakeStorage();
}

ConstraintClosure::ConstraintClosure(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     size_t window, ClosureScratch* scratch)
    : ConstraintClosure(era, alphabet, window, scratch) {
  // The caller's word and window are the only inputs the kernel does not
  // produce itself; checked once here, so the per-position loops index
  // without checks.
  RAV_CHECK_GE(window, 1u);
  RAV_CHECK(window <= control_word.prefix.size() ||
            !control_word.cycle.empty());
  for (const std::vector<int>* part :
       {&control_word.prefix, &control_word.cycle}) {
    for (int symbol : *part) {
      RAV_CHECK_GE(symbol, 0);
      RAV_CHECK_LT(symbol, alphabet.size());
    }
  }
  s_.word.prefix.assign(control_word.prefix.begin(),
                        control_word.prefix.end());
  s_.word.cycle.assign(control_word.cycle.begin(), control_word.cycle.end());
  s_.parent.clear();
  s_.node_in_adom.clear();
  s_.raw_ineq.clear();
  s_.sweep_groups.clear();
  s_.link_pos.clear();
  s_.link_next.clear();
  AddNodes(num_nodes());
  // Constants are part of the active domain by definition.
  for (int c = 0; c < num_constants_; ++c) {
    s_.node_in_adom[ConstantNode(c)] = 1;
  }

  ClosureScratch& s =
      scratch != nullptr ? *scratch : ThreadLocalClosureScratch();
  ApplyTypes(0, s);
  SweepConstraints(0, s);
  DecideConsistency();
  ++s.tally_.built;
  if (!consistent_) ++s.tally_.inconsistent;
  if (scratch == nullptr) s.FlushMetrics();
}

ConstraintClosure::~ConstraintClosure() {
  if (home_ != nullptr) home_->ReturnStorage(std::move(s_));
}

ConstraintClosure::ConstraintClosure(ConstraintClosure&& other) noexcept
    : era_(other.era_),
      alphabet_(other.alphabet_),
      home_(other.home_),
      k_(other.k_),
      num_constants_(other.num_constants_),
      window_(other.window_),
      consistent_(other.consistent_),
      canonical_(other.canonical_),
      num_classes_(other.num_classes_),
      s_(std::move(other.s_)) {
  // The moved-from closure keeps nothing worth pooling.
  other.home_ = nullptr;
}

ConstraintClosure& ConstraintClosure::operator=(
    ConstraintClosure&& other) noexcept {
  // Swap, so `other` hands this closure's old storage back to its pool.
  std::swap(era_, other.era_);
  std::swap(alphabet_, other.alphabet_);
  std::swap(home_, other.home_);
  std::swap(k_, other.k_);
  std::swap(num_constants_, other.num_constants_);
  std::swap(window_, other.window_);
  std::swap(consistent_, other.consistent_);
  std::swap(canonical_, other.canonical_);
  std::swap(num_classes_, other.num_classes_);
  std::swap(s_, other.s_);
  return *this;
}

ConstraintClosure ConstraintClosure::ExtendedBy(
    size_t extra_cycles, ClosureScratch* scratch) const& {
  ConstraintClosure copy(*era_, *alphabet_, window_, scratch);
  copy.consistent_ = consistent_;
  copy.s_.word.prefix.assign(s_.word.prefix.begin(), s_.word.prefix.end());
  copy.s_.word.cycle.assign(s_.word.cycle.begin(), s_.word.cycle.end());
  copy.s_.parent.assign(s_.parent.begin(), s_.parent.end());
  copy.s_.node_in_adom.assign(s_.node_in_adom.begin(),
                              s_.node_in_adom.end());
  copy.s_.raw_ineq.assign(s_.raw_ineq.begin(), s_.raw_ineq.end());
  copy.s_.sweep_groups.assign(s_.sweep_groups.begin(),
                              s_.sweep_groups.end());
  copy.s_.link_pos.assign(s_.link_pos.begin(), s_.link_pos.end());
  copy.s_.link_next.assign(s_.link_next.begin(), s_.link_next.end());
  return std::move(copy).ExtendedBy(extra_cycles, scratch);
}

ConstraintClosure ConstraintClosure::ExtendedBy(size_t extra_cycles,
                                                ClosureScratch* scratch) && {
  const size_t extra = extra_cycles * s_.word.cycle.size();
  if (extra == 0) return std::move(*this);

  ClosureScratch& s =
      scratch != nullptr ? *scratch : ThreadLocalClosureScratch();
  const size_t old_window = window_;
  window_ += extra;
  canonical_ = false;
  AddNodes(static_cast<int>(extra) * k_);

  // The old last position was applied x̄-restricted; now that it has a
  // successor, re-apply its full type (a superset of the restriction, so
  // re-application only adds the constraints a from-scratch closure over
  // the larger window would have).
  ApplyTypes(old_window - 1, s);
  SweepConstraints(old_window, s);
  DecideConsistency();

  ++s.tally_.extended;
  if (!consistent_) ++s.tally_.inconsistent;
  if (scratch == nullptr) s.FlushMetrics();
  RAV_METRIC_RECORD("era/closure/extended_positions", extra);
  return std::move(*this);
}

void ConstraintClosure::AddNodes(int count) {
  const int first = static_cast<int>(s_.parent.size());
  s_.parent.resize(first + count);
  for (int v = first; v < first + count; ++v) s_.parent[v] = v;
  s_.node_in_adom.resize(first + count, 0);
}

void ConstraintClosure::ApplyOneType(const Type& t, const int* element_to_node,
                                     ClosureScratch& scratch) {
  std::vector<int>& rep = scratch.type_rep_;
  rep.assign(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      Union(element_to_node[rep[c]], element_to_node[e]);
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    s_.raw_ineq.emplace_back(element_to_node[rep[c1]],
                             element_to_node[rep[c2]]);
  }
  for (const TypeAtom& a : t.atoms()) {
    if (!a.positive) continue;
    for (int c : a.args) s_.node_in_adom[element_to_node[rep[c]]] = 1;
  }
}

void ConstraintClosure::CompileType(const Type& t, ClosureScratch& scratch,
                                    ClosureScratch::TypeProgram& program) {
  std::vector<int>& rep = scratch.type_rep_;
  rep.assign(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      program.unions.emplace_back(rep[c], e);
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    program.diseqs.emplace_back(rep[c1], rep[c2]);
  }
  for (const TypeAtom& a : t.atoms()) {
    if (!a.positive) continue;
    for (int c : a.args) program.adom.push_back(rep[c]);
  }
}

void ConstraintClosure::ApplyTypes(size_t from_pos, ClosureScratch& scratch) {
  const LassoWord& word = s_.word;
  // With a compiled alphabet the per-symbol programs already exist as
  // compile::GuardOps (lowered once at alphabet build, shared across every
  // closure and every worker) — replay them directly, skipping the
  // per-pass CompileType stage below entirely.
  if (const compile::GuardTableSet* tables = alphabet_->tables()) {
    SymbolCursor cursor(word, from_pos);
    const int two_k = 2 * k_;
    for (size_t n = from_pos; n + 1 < window_; ++n) {
      const int sym = cursor.Next();
      // One dense load per position; -1 marks a data-trivial guard whose
      // program is empty — the same skip the interpreted path's
      // kEmptyProgram marker takes.
      const GuardId gid = alphabet_->closure_program_of_symbol(SymbolId(sym));
      if (!gid.valid()) continue;
      const compile::GuardOps& ops = tables->closure_ops(gid);
      const int base = num_constants_ + static_cast<int>(n) * k_;
      auto node = [&](int e) { return e < two_k ? base + e : e - two_k; };
      for (const auto& [a, b] : ops.unions) Union(node(a), node(b));
      for (const auto& [a, b] : ops.diseqs) {
        s_.raw_ineq.emplace_back(node(a), node(b));
      }
      for (int e : ops.adom) s_.node_in_adom[node(e)] = 1;
    }
    // Last position: the precompiled x̄-restricted program over
    // (k registers at window_-1, constants).
    const GuardId last_gid = alphabet_->x_closure_program_of_symbol(
        SymbolId(word.SymbolAt(window_ - 1)));
    if (!last_gid.valid()) return;
    const compile::GuardOps& last_ops = tables->x_closure_ops(last_gid);
    const int base = num_constants_ + static_cast<int>(window_ - 1) * k_;
    auto node = [&](int e) { return e < k_ ? base + e : e - k_; };
    for (const auto& [a, b] : last_ops.unions) Union(node(a), node(b));
    for (const auto& [a, b] : last_ops.diseqs) {
      s_.raw_ineq.emplace_back(node(a), node(b));
    }
    for (int e : last_ops.adom) s_.node_in_adom[node(e)] = 1;
    return;
  }
  std::vector<int>& nodes = scratch.element_nodes_;
  // Full types of positions with a successor inside the window. The 2k-var
  // type's elements map to (x̄ at n, ȳ at n+1, constants); since
  // NodeOf(n + 1, e - k) == NodeOf(n, e) for k <= e < 2k, element e maps
  // to num_constants_ + n·k + e for e < 2k and to constant e - 2k after.
  // Each distinct symbol is compiled once, then replayed per position.
  constexpr int kUncompiled = -1;
  constexpr int kEmptyProgram = -2;  // trivial guard: nothing to replay
  scratch.program_of_symbol_.assign(alphabet_->size(), kUncompiled);
  scratch.programs_used_ = 0;
  SymbolCursor cursor(word, from_pos);
  for (size_t n = from_pos; n + 1 < window_; ++n) {
    const int sym = cursor.Next();
    int pi = scratch.program_of_symbol_[sym];
    if (pi == kEmptyProgram) continue;
    if (pi == kUncompiled) {
      pi = scratch.programs_used_;
      if (static_cast<size_t>(pi) == scratch.programs_.size()) {
        scratch.programs_.emplace_back();
      }
      ClosureScratch::TypeProgram& fresh = scratch.programs_[pi];
      fresh.unions.clear();
      fresh.diseqs.clear();
      fresh.adom.clear();
      CompileType(alphabet_->guard_of(SymbolId(sym)), scratch, fresh);
      if (fresh.unions.empty() && fresh.diseqs.empty() &&
          fresh.adom.empty()) {
        scratch.program_of_symbol_[sym] = kEmptyProgram;
        continue;
      }
      ++scratch.programs_used_;
      scratch.program_of_symbol_[sym] = pi;
    }
    const ClosureScratch::TypeProgram& p = scratch.programs_[pi];
    const int base = num_constants_ + static_cast<int>(n) * k_;
    const int two_k = 2 * k_;
    auto node = [&](int e) { return e < two_k ? base + e : e - two_k; };
    for (const auto& [a, b] : p.unions) Union(node(a), node(b));
    for (const auto& [a, b] : p.diseqs) {
      s_.raw_ineq.emplace_back(node(a), node(b));
    }
    for (int e : p.adom) s_.node_in_adom[node(e)] = 1;
  }
  // The last position contributes only its x̄-part (precomputed per
  // symbol by the alphabet).
  const Type& last =
      alphabet_->x_restricted_guard_of(SymbolId(word.SymbolAt(window_ - 1)));
  nodes.clear();
  for (int i = 0; i < k_; ++i) nodes.push_back(NodeOf(window_ - 1, i));
  for (int c = 0; c < num_constants_; ++c) nodes.push_back(ConstantNode(c));
  ApplyOneType(last, nodes.data(), scratch);
}

void ConstraintClosure::SweepConstraints(size_t from_pos,
                                         ClosureScratch& scratch) {
  const std::vector<GlobalConstraint>& constraints = era_->constraints();
  if (from_pos >= window_ || constraints.empty()) return;
  // Control states read at positions [from_pos, window_), resolved once
  // and shared by every constraint's sweep.
  std::vector<int>& qs = scratch.states_at_;
  qs.clear();
  SymbolCursor cursor(s_.word, from_pos);
  int max_q = 0;
  for (size_t m = from_pos; m < window_; ++m) {
    const int q = alphabet_->state_of(SymbolId(cursor.Next())).value();
    qs.push_back(q);
    max_q = std::max(max_q, q);
  }

  // The new parked groups are staged in scratch (the old ones are read as
  // the sweep goes) and swapped in at the end.
  std::vector<ClosureSweepGroup>& next_groups = scratch.parked_groups_tmp_;
  next_groups.clear();
  size_t gi = 0;  // cursor over s_.sweep_groups (ordered by constraint)
  std::vector<int>& link_pos = s_.link_pos;
  std::vector<int>& link_next = s_.link_next;

  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const GlobalConstraint& c = constraints[ci];
    const Dfa& dfa = c.dfa;
    const int num_dfa_states = dfa.num_states();
    // Flat per-constraint tables: byte copies of the accepting and
    // coreachable bitsets, and the state a run starting on control state
    // q is in after one step (-1 if it can never reach an accept).
    // Constraints added through AddConstraintDfa always carry the
    // precomputed coreachable set; treat a missing one as all-live.
    const bool have_coreach =
        c.coreachable.size() == static_cast<size_t>(num_dfa_states);
    std::vector<char>& live = scratch.live_;
    std::vector<char>& accept = scratch.accept_;
    live.resize(num_dfa_states);
    accept.resize(num_dfa_states);
    for (int s = 0; s < num_dfa_states; ++s) {
      live[s] = !have_coreach || c.coreachable[s];
      accept[s] = dfa.IsAccepting(s);
    }
    std::vector<int>& start_state = scratch.start_state_of_q_;
    start_state.resize(max_q + 1);
    const int* initial_row = dfa.NextRow(dfa.initial());
    for (int q : qs) {
      const int s0 = initial_row[q];
      start_state[q] = live[s0] ? s0 : -1;
    }
    scratch.EnsureStateBuffers(num_dfa_states);
    const int reg_i = c.i.value();
    const int reg_j = c.j.value();
    int cur = 0;
    for (; gi < s_.sweep_groups.size() &&
           s_.sweep_groups[gi].constraint == static_cast<int>(ci);
         ++gi) {
      const ClosureSweepGroup& g = s_.sweep_groups[gi];
      scratch.head_[cur][g.dfa_state] = g.head;
      scratch.tail_[cur][g.dfa_state] = g.tail;
      scratch.occupied_[cur].push_back(g.dfa_state);
    }

    for (size_t t = 0; t < qs.size(); ++t) {
      const int m = static_cast<int>(from_pos + t);
      const int q = qs[t];
      const int nxt = cur ^ 1;
      int* head_from = scratch.head_[cur].data();
      int* tail_from = scratch.tail_[cur].data();
      int* head_to = scratch.head_[nxt].data();
      int* tail_to = scratch.tail_[nxt].data();
      std::vector<int>& occ_nxt = scratch.occupied_[nxt];
      // Advance every live run by the state read at position m. Runs
      // converging on the same DFA state merge into one group (the lists
      // are spliced); runs entering a state from which no accepting state
      // is reachable are dropped — they can never emit another edge.
      for (int s : scratch.occupied_[cur]) {
        const int head = head_from[s];
        head_from[s] = -1;
        const int to = dfa.NextRow(s)[q];
        if (!live[to]) continue;
        if (head_to[to] < 0) {
          head_to[to] = head;
          occ_nxt.push_back(to);
        } else {
          link_next[tail_to[to]] = head;
        }
        tail_to[to] = tail_from[s];
      }
      scratch.occupied_[cur].clear();
      // A new run starts at position m (the factor q_m...).
      const int s0 = start_state[q];
      if (s0 >= 0) {
        const int link = static_cast<int>(link_pos.size());
        link_pos.push_back(m);
        link_next.push_back(-1);
        if (head_to[s0] < 0) {
          head_to[s0] = link;
          occ_nxt.push_back(s0);
        } else {
          link_next[tail_to[s0]] = link;
        }
        tail_to[s0] = link;
      }
      // Accepting groups emit their edges against position m. For an
      // equality constraint every start is merged into one class, so the
      // group collapses to a single representative.
      for (int s : occ_nxt) {
        if (!accept[s]) continue;
        const int b = NodeOf(m, reg_j);
        const int head = head_to[s];
        if (c.is_equality) {
          for (int l = head; l >= 0; l = link_next[l]) {
            Union(NodeOf(link_pos[l], reg_i), b);
          }
          link_next[head] = -1;
          tail_to[s] = head;
        } else {
          for (int l = head; l >= 0; l = link_next[l]) {
            s_.raw_ineq.emplace_back(NodeOf(link_pos[l], reg_i), b);
          }
        }
      }
      cur = nxt;
    }

    // Park the final groups (for ExtendedBy) and restore the all-empty
    // buffer invariant for the next constraint.
    for (int s : scratch.occupied_[cur]) {
      next_groups.push_back(ClosureSweepGroup{
          static_cast<int>(ci), s, scratch.head_[cur][s],
          scratch.tail_[cur][s]});
      scratch.head_[cur][s] = -1;
    }
    scratch.occupied_[cur].clear();
  }

  s_.sweep_groups.swap(next_groups);
}

void ConstraintClosure::DecideConsistency() {
  // An inequality inside one class is a genuine contradiction; one is
  // enough, so the scan stops there.
  consistent_ = true;
  for (const auto& [a, b] : s_.raw_ineq) {
    if (Find(a) == Find(b)) {
      consistent_ = false;
      return;
    }
  }
}

size_t ConstraintClosure::ConflictWindowLowerBound() const {
  if (consistent_) return 0;
  // Node ids grow with position (constants first), so the later node of
  // a pair decides the window that holds both.
  int least = num_nodes();
  for (const auto& [a, b] : s_.raw_ineq) {
    const int later = std::max(a, b);
    if (later < least && Find(a) == Find(b)) least = later;
  }
  if (least < num_constants_) return 1;
  return static_cast<size_t>((least - num_constants_) / k_) + 1;
}

void ConstraintClosure::Canonicalize() const {
  if (canonical_) return;
  // Dense class ids in smallest-node order, so the assignment depends
  // only on the partition (identical across build-vs-extend). A class's
  // root is its smallest node, so it is numbered before any other member
  // is reached.
  const int n = num_nodes();
  std::vector<int>& class_of_node = s_.class_of_node;
  class_of_node.resize(n);
  int num_classes = 0;
  for (int v = 0; v < n; ++v) {
    const int root = Find(v);
    class_of_node[v] = root == v ? num_classes++ : class_of_node[root];
  }
  num_classes_ = num_classes;
  s_.class_in_adom.assign(num_classes, 0);
  for (int v = 0; v < n; ++v) {
    if (s_.node_in_adom[v]) s_.class_in_adom[class_of_node[v]] = 1;
  }

  // Inequality edges at class level, sorted and deduplicated in linear
  // time: bucket the raw edges by smaller class (counting sort), then
  // keep each bucket's distinct larger classes (stamped with the bucket)
  // in ascending order. Edges inside one class are the contradictions
  // consistent() already reports; they carry no class edge.
  std::vector<int>& begin = s_.bucket_begin;
  std::vector<int>& items = s_.bucket_items;
  begin.assign(num_classes + 1, 0);
  for (const auto& [a, b] : s_.raw_ineq) {
    const int ca = class_of_node[a];
    const int cb = class_of_node[b];
    if (ca != cb) ++begin[std::min(ca, cb) + 1];
  }
  for (int c = 0; c < num_classes; ++c) begin[c + 1] += begin[c];
  items.resize(begin[num_classes]);
  for (const auto& [a, b] : s_.raw_ineq) {
    const int ca = class_of_node[a];
    const int cb = class_of_node[b];
    if (ca != cb) items[begin[std::min(ca, cb)]++] = std::max(ca, cb);
  }
  // begin[c] now ends bucket c; bucket c starts where bucket c-1 ended.
  std::vector<int>& stamp = s_.stamp;
  stamp.assign(num_classes, -1);
  std::vector<std::pair<int, int>>& edges = s_.ineq_edges;
  edges.clear();
  int bucket_start = 0;
  for (int lo = 0; lo < num_classes; ++lo) {
    const size_t first = edges.size();
    for (int i = bucket_start; i < begin[lo]; ++i) {
      const int hi = items[i];
      if (stamp[hi] == lo) continue;
      stamp[hi] = lo;
      edges.emplace_back(lo, hi);
    }
    std::sort(edges.begin() + first, edges.end());
    bucket_start = begin[lo];
  }
  canonical_ = true;
  RAV_METRIC_RECORD("era/closure/nodes", n);
  RAV_METRIC_RECORD("era/closure/classes", num_classes);
  RAV_METRIC_RECORD("era/closure/ineq_edges", edges.size());
}

size_t ConstraintClosure::ApproxBytes() const {
  size_t bytes = sizeof(*this) +
                 s_.parent.size() * (sizeof(int) + sizeof(char)) +
                 s_.raw_ineq.size() * sizeof(std::pair<int, int>) +
                 s_.sweep_groups.size() * sizeof(ClosureSweepGroup) +
                 s_.link_pos.size() * 2 * sizeof(int);
  if (canonical_) {
    bytes += s_.class_of_node.size() * sizeof(int) +
             s_.class_in_adom.size() * sizeof(char) +
             s_.ineq_edges.size() * sizeof(std::pair<int, int>);
  }
  return bytes;
}

int ConstraintClosure::ClassOf(int node) const {
  Canonicalize();
  RAV_CHECK_GE(node, 0);
  RAV_CHECK_LT(static_cast<size_t>(node), s_.class_of_node.size());
  return s_.class_of_node[node];
}

int ConstraintClosure::NumAdomClasses() const {
  Canonicalize();
  int n = 0;
  for (char b : s_.class_in_adom) n += b != 0;
  return n;
}

std::vector<std::pair<int, int>> ConstraintClosure::AdomInequalityEdges()
    const {
  Canonicalize();
  std::vector<std::pair<int, int>> out;
  for (const auto& [a, b] : s_.ineq_edges) {
    if (s_.class_in_adom[a] && s_.class_in_adom[b]) out.emplace_back(a, b);
  }
  return out;
}

namespace {

// Bron–Kerbosch with pivoting over an adjacency-list graph on dense ids.
class CliqueFinder {
 public:
  explicit CliqueFinder(int n) : adj_(n, std::vector<bool>(n, false)), n_(n) {}

  void AddEdge(int a, int b) {
    adj_[a][b] = adj_[b][a] = true;
  }

  int MaxClique() {
    std::vector<int> r, p, x;
    for (int v = 0; v < n_; ++v) p.push_back(v);
    best_ = 0;
    Expand(r, p, x);
    return best_;
  }

 private:
  void Expand(std::vector<int>& r, std::vector<int> p, std::vector<int> x) {
    if (p.empty() && x.empty()) {
      best_ = std::max(best_, static_cast<int>(r.size()));
      return;
    }
    if (static_cast<int>(r.size() + p.size()) <= best_) return;  // bound
    // Pivot: vertex of p ∪ x with most neighbors in p.
    int pivot = -1, pivot_deg = -1;
    for (int v : p) {
      int d = 0;
      for (int u : p) d += adj_[v][u];
      if (d > pivot_deg) {
        pivot_deg = d;
        pivot = v;
      }
    }
    for (int v : x) {
      int d = 0;
      for (int u : p) d += adj_[v][u];
      if (d > pivot_deg) {
        pivot_deg = d;
        pivot = v;
      }
    }
    std::vector<int> candidates;
    for (int v : p) {
      if (pivot < 0 || !adj_[pivot][v]) candidates.push_back(v);
    }
    for (int v : candidates) {
      std::vector<int> p2, x2;
      for (int u : p) {
        if (adj_[v][u]) p2.push_back(u);
      }
      for (int u : x) {
        if (adj_[v][u]) x2.push_back(u);
      }
      r.push_back(v);
      Expand(r, std::move(p2), std::move(x2));
      r.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  std::vector<std::vector<bool>> adj_;
  int n_;
  int best_ = 0;
};

}  // namespace

int ConstraintClosure::AdomCliqueNumber(int max_nodes) const {
  // Compact the adom classes that touch an inequality edge (isolated
  // classes cannot enlarge a clique beyond 1).
  std::vector<std::pair<int, int>> edges = AdomInequalityEdges();
  if (edges.empty()) return NumAdomClasses() > 0 ? 1 : 0;
  std::vector<int> compact(num_classes(), -1);
  int n = 0;
  for (const auto& [a, b] : edges) {
    if (compact[a] < 0) compact[a] = n++;
    if (compact[b] < 0) compact[b] = n++;
  }
  if (n > max_nodes) return -1;
  CliqueFinder finder(n);
  for (const auto& [a, b] : edges) finder.AddEdge(compact[a], compact[b]);
  return finder.MaxClique();
}

std::vector<int> ConstraintClosure::GreedyAdomColoring(int* num_colors) const {
  Canonicalize();
  std::vector<std::vector<int>> neighbors(num_classes_);
  for (const auto& [a, b] : AdomInequalityEdges()) {
    neighbors[a].push_back(b);
    neighbors[b].push_back(a);
  }
  std::vector<int> color(num_classes_, 0);
  int max_color = 0;
  for (int c = 0; c < num_classes_; ++c) {
    if (!s_.class_in_adom[c]) continue;
    std::vector<bool> used(num_classes_ + 1, false);
    for (int nb : neighbors[c]) {
      if (nb < c && s_.class_in_adom[nb]) used[color[nb]] = true;
    }
    int pick = 0;
    while (used[pick]) ++pick;
    color[c] = pick;
    max_color = std::max(max_color, pick);
  }
  if (num_colors != nullptr) *num_colors = max_color + 1;
  return color;
}

size_t SuggestedPumpCount(const ExtendedAutomaton& era) {
  size_t pump = 4 + 2 * static_cast<size_t>(era.automaton().num_registers());
  for (const GlobalConstraint& c : era.constraints()) {
    pump += 2 * static_cast<size_t>(c.dfa.num_states());
  }
  return pump;
}

}  // namespace rav
