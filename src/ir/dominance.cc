#include "src/ir/dominance.h"

#include <algorithm>

namespace spex {

namespace {

constexpr size_t kNone = SIZE_MAX;

// lists[i], or an empty list for kNone (a foreign block or edge).
template <typename T>
const std::vector<T>& ListAt(const std::vector<std::vector<T>>& lists, size_t i) {
  static const std::vector<T> kEmpty;
  return i != kNone ? lists[i] : kEmpty;
}

}  // namespace

// Cooper, Harvey and Kennedy's "A Simple, Fast Dominance Algorithm":
// immediate dominators by iterating over reverse postorder, intersecting
// the predecessors' dominator-tree paths.
DominatorTree::DominatorTree(const Function& function, bool post) : function_(function) {
  n_ = function.blocks().size();
  const size_t total = post ? n_ + 1 : n_;  // +1 for the virtual exit.
  virtual_exit_ = n_;
  // Edges in the direction of the analysis: the CFG for dominators; the
  // reversed CFG, from the virtual exit into every exit block, for
  // post-dominators.
  std::vector<std::vector<size_t>> succs(total);
  std::vector<std::vector<size_t>> preds(total);
  auto add_edge = [&](size_t from, size_t to) {
    succs[from].push_back(to);
    preds[to].push_back(from);
  };
  for (const auto& block : function.blocks()) {
    const std::vector<BasicBlock*> out = block->Successors();
    if (post && out.empty()) {
      add_edge(virtual_exit_, block->index());
    }
    for (const BasicBlock* succ : out) {
      post ? add_edge(succ->index(), block->index()) : add_edge(block->index(), succ->index());
    }
  }
  reachable_.assign(total, false);
  idom_.assign(total, -1);
  if (total == 0) {
    return;
  }

  // Postorder of the nodes reachable from the root (iterative DFS).
  const size_t root = post ? virtual_exit_ : 0;
  std::vector<size_t> postorder;
  std::vector<size_t> po_number(total, 0);
  std::vector<size_t> next_child(total, 0);
  std::vector<size_t> stack = {root};
  reachable_[root] = true;
  while (!stack.empty()) {
    size_t v = stack.back();
    if (next_child[v] < succs[v].size()) {
      size_t w = succs[v][next_child[v]++];
      if (!reachable_[w]) {
        reachable_[w] = true;
        stack.push_back(w);
      }
    } else {
      po_number[v] = postorder.size();
      postorder.push_back(v);
      stack.pop_back();
    }
  }

  auto intersect = [&](size_t a, size_t b) {
    while (a != b) {
      while (po_number[a] < po_number[b]) {
        a = static_cast<size_t>(idom_[a]);
      }
      while (po_number[b] < po_number[a]) {
        b = static_cast<size_t>(idom_[b]);
      }
    }
    return a;
  };
  idom_[root] = static_cast<int>(root);
  for (bool changed = true; changed;) {
    changed = false;
    for (auto it = postorder.rbegin() + 1; it != postorder.rend(); ++it) {
      int best = -1;
      for (size_t pred : preds[*it]) {
        if (idom_[pred] >= 0) {  // Skips unreachable and not yet processed preds.
          best = best < 0 ? static_cast<int>(pred)
                          : static_cast<int>(intersect(pred, static_cast<size_t>(best)));
        }
      }
      if (idom_[*it] != best) {
        idom_[*it] = best;
        changed = true;
      }
    }
  }
  idom_[root] = -1;
}

bool DominatorTree::Dominates(const BasicBlock* a, const BasicBlock* b) const {
  const size_t ia = a->index();
  if (ia >= n_ || b->index() >= n_) {
    return false;
  }
  // Reflexive even for unreachable blocks, whose idom chain is empty.
  for (int i = static_cast<int>(b->index()); i >= 0; i = idom_[static_cast<size_t>(i)]) {
    if (static_cast<size_t>(i) == ia) {
      return true;
    }
  }
  return false;
}

const BasicBlock* DominatorTree::ImmediateDominator(const BasicBlock* block) const {
  size_t i = block->index();
  if (i >= idom_.size() || idom_[i] < 0 || static_cast<size_t>(idom_[i]) >= n_) {
    return nullptr;  // Root, virtual exit, or unreachable.
  }
  return function_.blocks()[static_cast<size_t>(idom_[i])].get();
}

bool DominatorTree::IsReachable(const BasicBlock* block) const {
  size_t i = block->index();
  return i < reachable_.size() && reachable_[i];
}

ControlDependence::ControlDependence(const Function& function) : function_(function) {
  const auto& blocks = function.blocks();
  const size_t n = blocks.size();
  first_edge_.assign(n, kNone);
  for (size_t i = 0; i < n; ++i) {
    const Instruction* term = blocks[i]->terminator();
    if (term == nullptr || term->successors().size() < 2) {
      continue;  // Unconditional edges impose no control dependence.
    }
    first_edge_[i] = edges_.size();
    for (size_t edge = 0; edge < term->successors().size(); ++edge) {
      edges_.push_back(ControlDep{term, static_cast<int>(edge)});
    }
  }

  // B is control-dependent on edge (A -> S) iff B post-dominates S (or
  // B == S) and B does not post-dominate A: exactly the blocks on S's
  // post-dominator tree path below A's immediate post-dominator, A itself
  // excluded. Visiting edges in id order keeps each block's list sorted.
  DominatorTree postdom(function, /*post=*/true);
  std::vector<std::vector<size_t>> direct_ids(n);
  for (size_t id = 0; id < edges_.size(); ++id) {
    const Instruction* branch = edges_[id].branch;
    const BasicBlock* a = branch->parent();
    const BasicBlock* s = branch->successors()[static_cast<size_t>(edges_[id].successor_index)];
    if (!postdom.IsReachable(s)) {
      continue;
    }
    const BasicBlock* stop = postdom.ImmediateDominator(a);
    for (const BasicBlock* b = s; b != nullptr && b != stop; b = postdom.ImmediateDominator(b)) {
      if (b != a) {
        direct_ids[b->index()].push_back(id);
      }
    }
  }

  // Closure per block: a worklist over controlling blocks, stamped with
  // the block being closed instead of kept in sets.
  direct_.resize(n);
  transitive_.resize(n);
  direct_region_.resize(edges_.size());
  region_.resize(edges_.size());
  std::vector<size_t> edge_stamp(edges_.size(), kNone);
  std::vector<size_t> block_stamp(n, kNone);
  std::vector<size_t> ids;
  std::vector<size_t> work;
  for (size_t i = 0; i < n; ++i) {
    ids.clear();
    work.assign(1, i);
    block_stamp[i] = i;
    while (!work.empty()) {
      size_t current = work.back();
      work.pop_back();
      for (size_t id : direct_ids[current]) {
        size_t from = edges_[id].branch->parent()->index();
        if (edge_stamp[id] != i) {
          edge_stamp[id] = i;
          ids.push_back(id);
          if (block_stamp[from] != i) {
            block_stamp[from] = i;
            work.push_back(from);
          }
        }
      }
    }
    std::sort(ids.begin(), ids.end());
    for (size_t id : direct_ids[i]) {
      direct_[i].push_back(edges_[id]);
      direct_region_[id].push_back(blocks[i].get());
    }
    for (size_t id : ids) {
      transitive_[i].push_back(edges_[id]);
      region_[id].push_back(blocks[i].get());
    }
  }
}

size_t ControlDependence::IndexOf(const BasicBlock* block) const {
  size_t i = block->index();
  return i < direct_.size() && function_.blocks()[i].get() == block ? i : kNone;
}

size_t ControlDependence::EdgeId(const Instruction* branch, int edge) const {
  size_t block = IndexOf(branch->parent());
  if (block == kNone || first_edge_[block] == kNone || edges_[first_edge_[block]].branch != branch ||
      edge < 0 || static_cast<size_t>(edge) >= branch->successors().size()) {
    return kNone;
  }
  return first_edge_[block] + static_cast<size_t>(edge);
}

const std::vector<ControlDep>& ControlDependence::DirectDeps(const BasicBlock* block) const {
  return ListAt(direct_, IndexOf(block));
}

const std::vector<ControlDep>& ControlDependence::TransitiveDeps(const BasicBlock* block) const {
  return ListAt(transitive_, IndexOf(block));
}

const std::vector<const BasicBlock*>& ControlDependence::Region(const Instruction* branch,
                                                                int edge) const {
  return ListAt(region_, EdgeId(branch, edge));
}

const std::vector<const BasicBlock*>& ControlDependence::DirectRegion(const Instruction* branch,
                                                                      int edge) const {
  return ListAt(direct_region_, EdgeId(branch, edge));
}

}  // namespace spex
