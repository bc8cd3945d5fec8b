#include "oracle/closure_oracle.h"

#include <algorithm>

#include "base/union_find.h"

namespace rav::oracle {

namespace {

// Merges the equalities of `t` and records its disequalities and positive
// atoms, with element e of the type standing for node element_to_node[e].
void ApplyOneType(const Type& t, const std::vector<int>& element_to_node,
                  UnionFind& uf, std::vector<std::pair<int, int>>& raw_ineq,
                  std::vector<bool>& node_in_adom) {
  std::vector<int> rep(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    const int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      uf.Union(element_to_node[rep[c]], element_to_node[e]);
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    raw_ineq.emplace_back(element_to_node[rep[c1]], element_to_node[rep[c2]]);
  }
  for (const TypeAtom& a : t.atoms()) {
    if (!a.positive) continue;
    for (int c : a.args) node_in_adom[element_to_node[rep[c]]] = true;
  }
}

}  // namespace

int ReferenceClosure::NumAdomClasses() const {
  return static_cast<int>(
      std::count(class_in_adom_.begin(), class_in_adom_.end(), true));
}

ReferenceClosure ReferenceConstraintClosure(const ExtendedAutomaton& era,
                                            const ControlAlphabet& alphabet,
                                            const LassoWord& word,
                                            size_t window) {
  const int k = era.automaton().num_registers();
  const int num_constants = era.automaton().schema().num_constants();
  const int num_nodes = num_constants + static_cast<int>(window) * k;
  auto node_of = [&](size_t pos, int reg) {
    return num_constants + static_cast<int>(pos) * k + reg;
  };
  UnionFind uf(num_nodes);
  std::vector<std::pair<int, int>> raw_ineq;
  std::vector<bool> node_in_adom(num_nodes, false);
  for (int c = 0; c < num_constants; ++c) node_in_adom[c] = true;

  // Transition types: the full type of every position with a successor
  // in the window, over (x̄ at n, x̄ at n + 1, constants); the last
  // position's x̄-restriction over (x̄ at window - 1, constants).
  std::vector<int> nodes;
  for (size_t n = 0; n + 1 < window; ++n) {
    nodes.clear();
    for (int i = 0; i < k; ++i) nodes.push_back(node_of(n, i));
    for (int i = 0; i < k; ++i) nodes.push_back(node_of(n + 1, i));
    for (int c = 0; c < num_constants; ++c) nodes.push_back(c);
    ApplyOneType(alphabet.guard_of(SymbolId(word.SymbolAt(n))), nodes, uf,
                 raw_ineq, node_in_adom);
  }
  const Type last =
      RestrictToX(alphabet.guard_of(SymbolId(word.SymbolAt(window - 1))), k);
  nodes.clear();
  for (int i = 0; i < k; ++i) nodes.push_back(node_of(window - 1, i));
  for (int c = 0; c < num_constants; ++c) nodes.push_back(c);
  ApplyOneType(last, nodes, uf, raw_ineq, node_in_adom);

  // Global constraints: one DFA run per start position n, relating
  // (n, i) to every (m, j) whose factor q_n ... q_m the DFA accepts.
  for (const GlobalConstraint& c : era.constraints()) {
    for (size_t n = 0; n < window; ++n) {
      int dfa_state = c.dfa.initial();
      for (size_t m = n; m < window; ++m) {
        const int q = alphabet.state_of(SymbolId(word.SymbolAt(m))).value();
        dfa_state = c.dfa.Next(dfa_state, q);
        if (!c.dfa.IsAccepting(dfa_state)) continue;
        const int a = node_of(n, c.i.value());
        const int b = node_of(m, c.j.value());
        if (c.is_equality) {
          uf.Union(a, b);
        } else {
          raw_ineq.emplace_back(a, b);
        }
      }
    }
  }

  // Canonical form: dense class ids in smallest-node order, adom flags,
  // and sorted, deduplicated class edges; an edge inside one class is a
  // contradiction.
  ReferenceClosure out;
  out.window_ = window;
  out.class_of_node_.assign(num_nodes, -1);
  std::vector<int> root_to_class(num_nodes, -1);
  for (int v = 0; v < num_nodes; ++v) {
    const int root = uf.Find(v);
    if (root_to_class[root] < 0) root_to_class[root] = out.num_classes_++;
    out.class_of_node_[v] = root_to_class[root];
  }
  out.class_in_adom_.assign(out.num_classes_, false);
  for (int v = 0; v < num_nodes; ++v) {
    if (node_in_adom[v]) out.class_in_adom_[out.class_of_node_[v]] = true;
  }
  for (const auto& [a, b] : raw_ineq) {
    const int ca = out.class_of_node_[a];
    const int cb = out.class_of_node_[b];
    if (ca == cb) {
      out.consistent_ = false;
      continue;
    }
    out.ineq_edges_.emplace_back(std::min(ca, cb), std::max(ca, cb));
  }
  std::sort(out.ineq_edges_.begin(), out.ineq_edges_.end());
  out.ineq_edges_.erase(
      std::unique(out.ineq_edges_.begin(), out.ineq_edges_.end()),
      out.ineq_edges_.end());
  return out;
}

}  // namespace rav::oracle
