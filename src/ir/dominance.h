// Dominator/post-dominator trees and control-dependence analysis.
//
// Control dependence is the backbone of two of the paper's inference engines:
// data-range classification looks at the behaviour of the region controlled
// by a comparison, and control-dependency inference asks which parameter P's
// branches guard the usage sites of parameter Q (Section 2.2.4).
#ifndef SPEX_IR_DOMINANCE_H_
#define SPEX_IR_DOMINANCE_H_

#include <cstdint>
#include <vector>

#include "src/ir/ir.h"

namespace spex {

// Forward or reverse dominator tree over one function's CFG. Unreachable
// blocks are reported as dominated by nothing and dominating nothing.
class DominatorTree {
 public:
  // post = false: classic dominators rooted at entry.
  // post = true: post-dominators rooted at a virtual exit that all Ret /
  // Unreachable / successor-less blocks lead to.
  DominatorTree(const Function& function, bool post);

  // True iff `a` dominates `b` (reflexive).
  bool Dominates(const BasicBlock* a, const BasicBlock* b) const;
  // Immediate dominator, or nullptr for the root / unreachable blocks.
  const BasicBlock* ImmediateDominator(const BasicBlock* block) const;
  bool IsReachable(const BasicBlock* block) const;

 private:
  const Function& function_;
  size_t n_ = 0;             // Number of real blocks.
  size_t virtual_exit_ = 0;  // Index of the virtual exit (post mode only).
  std::vector<int> idom_;    // By block index; -1 = none.
  std::vector<bool> reachable_;
};

// One direct control dependence: `block` executes only if `branch` takes the
// successor edge `successor_index`.
struct ControlDep {
  const Instruction* branch = nullptr;
  int successor_index = -1;

  bool operator==(const ControlDep& other) const {
    return branch == other.branch && successor_index == other.successor_index;
  }
};

// Control-dependence index of one function, built once at construction so
// every query is a lookup. Blocks are addressed by index and branch edges
// by a dense edge id; all lists are ordered by (branch block index, edge)
// or by block index, so iteration order never depends on heap layout.
class ControlDependence {
 public:
  explicit ControlDependence(const Function& function);

  // Branch edges this block is directly control-dependent on.
  const std::vector<ControlDep>& DirectDeps(const BasicBlock* block) const;

  // Transitive closure: direct deps plus the deps of the controlling
  // branches' own blocks. This is the set of conditions that must all hold
  // for `block` to execute.
  const std::vector<ControlDep>& TransitiveDeps(const BasicBlock* block) const;

  // The blocks that execute only when `branch` takes successor `edge`,
  // including blocks nested under further branches inside the region.
  const std::vector<const BasicBlock*>& Region(const Instruction* branch, int edge) const;

  // Only the blocks *directly* control-dependent on the edge: the
  // straight-line body of the branch, excluding nested sub-branches.
  const std::vector<const BasicBlock*>& DirectRegion(const Instruction* branch, int edge) const;

 private:
  // Block index, or SIZE_MAX if `block` is not a block of this function.
  size_t IndexOf(const BasicBlock* block) const;
  // Edge id of (branch, edge), or SIZE_MAX if it is no branch edge here.
  size_t EdgeId(const Instruction* branch, int edge) const;

  const Function& function_;
  std::vector<size_t> first_edge_;  // By block index: id of successor 0's edge.
  std::vector<ControlDep> edges_;   // By edge id.
  std::vector<std::vector<ControlDep>> direct_;      // By block index.
  std::vector<std::vector<ControlDep>> transitive_;  // By block index.
  std::vector<std::vector<const BasicBlock*>> direct_region_;  // By edge id.
  std::vector<std::vector<const BasicBlock*>> region_;         // By edge id.
};

}  // namespace spex

#endif  // SPEX_IR_DOMINANCE_H_
