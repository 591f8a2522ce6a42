// Differential test of dominance and the control-dependence index.
// DominatorTree is checked against dominance by definition (reachability
// with one block removed); DirectDeps, TransitiveDeps, Region and
// DirectRegion are compared, as sets, against a reference that recomputes
// everything per query the straightforward way (post-dominance membership
// for direct deps, a worklist for the closure, a scan over all blocks for
// regions). Inputs are every function of every corpus target plus seeded
// random CFGs with loops, self-loops, switches, unreachable blocks,
// infinite loops and multiple exits.
#include "src/ir/dominance.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/corpus/spec.h"
#include "src/corpus/synthesizer.h"
#include "src/ir/builder.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/rng.h"

namespace spex {
namespace {

using Edge = std::pair<const Instruction*, int>;
using EdgeSet = std::set<Edge>;
using BlockSet = std::set<const BasicBlock*>;

// The reference: B is control-dependent on edge (A -> S) iff B
// post-dominates S (or B == S) and B does not post-dominate A; the closure
// follows controlling branches' blocks with a worklist.
class Reference {
 public:
  explicit Reference(const Function& fn) : fn_(fn) {
    DominatorTree postdom(fn, /*post=*/true);
    for (const auto& block_a : fn.blocks()) {
      const Instruction* term = block_a->terminator();
      if (term == nullptr || term->successors().size() < 2) {
        continue;
      }
      for (size_t edge = 0; edge < term->successors().size(); ++edge) {
        const BasicBlock* s = term->successors()[edge];
        edges_.push_back({term, static_cast<int>(edge)});
        for (const auto& block_b : fn.blocks()) {
          const BasicBlock* b = block_b.get();
          if (!postdom.IsReachable(b) || !postdom.IsReachable(s)) {
            continue;
          }
          bool pd_succ = (b == s) || postdom.Dominates(b, s);
          bool pd_branch = postdom.Dominates(b, block_a.get());
          if (pd_succ && !pd_branch) {
            direct_[b].insert({term, static_cast<int>(edge)});
          }
        }
      }
    }
  }

  const std::vector<Edge>& edges() const { return edges_; }

  EdgeSet Direct(const BasicBlock* block) const {
    auto it = direct_.find(block);
    return it != direct_.end() ? it->second : EdgeSet{};
  }

  EdgeSet Transitive(const BasicBlock* block) const {
    EdgeSet seen;
    std::vector<const BasicBlock*> work = {block};
    BlockSet visited = {block};
    while (!work.empty()) {
      const BasicBlock* current = work.back();
      work.pop_back();
      for (const Edge& dep : Direct(current)) {
        if (seen.insert(dep).second && visited.insert(dep.first->parent()).second) {
          work.push_back(dep.first->parent());
        }
      }
    }
    return seen;
  }

  BlockSet Region(const Edge& edge, bool transitive) const {
    BlockSet blocks;
    for (const auto& block : fn_.blocks()) {
      EdgeSet deps = transitive ? Transitive(block.get()) : Direct(block.get());
      if (deps.count(edge) > 0) {
        blocks.insert(block.get());
      }
    }
    return blocks;
  }

 private:
  const Function& fn_;
  std::vector<Edge> edges_;
  std::map<const BasicBlock*, EdgeSet> direct_;
};

EdgeSet AsSet(const std::vector<ControlDep>& deps) {
  EdgeSet set;
  for (const ControlDep& dep : deps) {
    set.insert({dep.branch, dep.successor_index});
  }
  EXPECT_EQ(set.size(), deps.size()) << "duplicate deps";
  return set;
}

BlockSet AsSet(const std::vector<const BasicBlock*>& blocks) {
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_LT(blocks[i - 1]->index(), blocks[i]->index()) << "region not in block-index order";
  }
  return BlockSet(blocks.begin(), blocks.end());
}

// Dominance by definition: `a` dominates `b` iff a == b, or both are
// reachable from the root and `b` is no longer reachable once `a` is
// removed. For post-dominance the root is a virtual exit with an edge to
// every successor-less block, and all edges are reversed.
void CheckDominance(const Function& fn, bool post) {
  SCOPED_TRACE(post ? "post-dominators" : "dominators");
  const size_t n = fn.blocks().size();
  const size_t root = post ? n : 0;
  std::vector<std::vector<size_t>> next(n + 1);
  for (const auto& block : fn.blocks()) {
    if (post && block->Successors().empty()) {
      next[n].push_back(block->index());
    }
    for (const BasicBlock* succ : block->Successors()) {
      post ? next[succ->index()].push_back(block->index())
           : next[block->index()].push_back(succ->index());
    }
  }
  auto reach_without = [&](size_t removed) {
    std::vector<bool> seen(n + 1, false);
    std::vector<size_t> work;
    if (root != removed) {
      seen[root] = true;
      work.push_back(root);
    }
    while (!work.empty()) {
      size_t v = work.back();
      work.pop_back();
      for (size_t w : next[v]) {
        if (w != removed && !seen[w]) {
          seen[w] = true;
          work.push_back(w);
        }
      }
    }
    return seen;
  };
  const std::vector<bool> reachable = reach_without(SIZE_MAX);
  DominatorTree tree(fn, post);
  std::vector<std::vector<bool>> dominates(n, std::vector<bool>(n, false));
  for (size_t a = 0; a < n; ++a) {
    std::vector<bool> without_a = reach_without(a);
    for (size_t b = 0; b < n; ++b) {
      dominates[a][b] = a == b || (reachable[a] && reachable[b] && !without_a[b]);
      EXPECT_EQ(tree.Dominates(fn.blocks()[a].get(), fn.blocks()[b].get()), dominates[a][b])
          << a << " dom " << b;
    }
  }
  for (size_t b = 0; b < n; ++b) {
    const BasicBlock* block = fn.blocks()[b].get();
    EXPECT_EQ(tree.IsReachable(block), static_cast<bool>(reachable[b])) << b;
    // The immediate dominator is the strict dominator every other strict
    // dominator dominates; none for the root, unreachable blocks, and
    // blocks whose only strict post-dominator is the virtual exit.
    const BasicBlock* expected = nullptr;
    for (size_t d = 0; d < n && reachable[b] && b != root; ++d) {
      bool all = d != b && dominates[d][b];
      for (size_t x = 0; x < n && all; ++x) {
        all = x == b || !dominates[x][b] || dominates[x][d];
      }
      if (all) {
        expected = fn.blocks()[d].get();
      }
    }
    EXPECT_EQ(tree.ImmediateDominator(block), expected) << b;
  }
}

// Compares every query on `fn`; returns the number of branch edges checked.
size_t CheckFunction(const Function& fn, const std::string& label) {
  SCOPED_TRACE(label);
  CheckDominance(fn, /*post=*/false);
  CheckDominance(fn, /*post=*/true);
  Reference reference(fn);
  ControlDependence index(fn);
  for (const auto& block : fn.blocks()) {
    SCOPED_TRACE(block->name());
    EXPECT_EQ(AsSet(index.DirectDeps(block.get())), reference.Direct(block.get()));
    EXPECT_EQ(AsSet(index.TransitiveDeps(block.get())), reference.Transitive(block.get()));
  }
  for (const Edge& edge : reference.edges()) {
    SCOPED_TRACE("edge " + std::to_string(edge.second) + " of " + edge.first->parent()->name());
    EXPECT_EQ(AsSet(index.Region(edge.first, edge.second)), reference.Region(edge, true));
    EXPECT_EQ(AsSet(index.DirectRegion(edge.first, edge.second)), reference.Region(edge, false));
  }
  // Queries outside the function's branch edges are empty, not errors.
  for (const auto& block : fn.blocks()) {
    const Instruction* term = block->terminator();
    if (term == nullptr) {
      continue;
    }
    int edges = static_cast<int>(term->successors().size());
    EXPECT_TRUE(index.Region(term, edges).empty());
    EXPECT_TRUE(index.Region(term, -1).empty());
    if (edges < 2) {
      EXPECT_TRUE(index.Region(term, 0).empty());
      EXPECT_TRUE(index.DirectRegion(term, 0).empty());
    }
  }
  return reference.edges().size();
}

TEST(ControlDependenceTest, MatchesReferenceOnEveryCorpusFunction) {
  for (const TargetSpec& spec : EvaluatedTargets()) {
    TargetBundle bundle = SynthesizeTarget(spec);
    DiagnosticEngine diags;
    auto unit = ParseSource(bundle.source, spec.name + ".c", &diags);
    auto module = LowerToIr(*unit, &diags);
    ASSERT_FALSE(diags.HasErrors()) << diags.Render();
    size_t edges = 0;
    for (const auto& fn : module->functions()) {
      if (!fn->IsDeclaration()) {
        edges += CheckFunction(*fn, spec.name + "::" + fn->name());
      }
    }
    EXPECT_GT(edges, 0u) << spec.name;
  }
}

// A random CFG over `n` blocks. Terminators are drawn from ret, unreachable,
// no terminator at all, br (self-loops included), condbr (both arms may be
// the same block) and switch, so the graphs have loops, unreachable blocks,
// blocks that never reach an exit, and several exits.
std::unique_ptr<Module> RandomCfg(DeterministicRng& rng, size_t n) {
  auto module = std::make_unique<Module>("random");
  Function* fn = module->AddFunction("f", module->types().void_type());
  Argument* selector = fn->AddArgument(module->types().IntType(32, false), "c");
  std::vector<BasicBlock*> blocks;
  for (size_t i = 0; i < n; ++i) {
    blocks.push_back(fn->CreateBlock("b" + std::to_string(i)));
  }
  IrBuilder builder(module.get(), fn);
  auto pick = [&] { return blocks[rng.NextBounded(n)]; };
  for (size_t i = 0; i < n; ++i) {
    builder.SetInsertPoint(blocks[i]);
    SourceLoc loc{"random.c", static_cast<uint32_t>(i + 1), 1};
    uint64_t roll = rng.NextBounded(100);
    if (roll < 12) {
      builder.CreateRet(nullptr, loc);
    } else if (roll < 16) {
      builder.CreateUnreachable(loc);
    } else if (roll < 19) {
      // No terminator: a successor-less block, treated as an exit.
    } else if (roll < 45) {
      builder.CreateBr(pick(), loc);
    } else if (roll < 85) {
      builder.CreateCondBr(selector, pick(), pick(), loc);
    } else {
      std::vector<std::pair<int64_t, BasicBlock*>> cases;
      size_t count = 1 + rng.NextBounded(4);
      for (size_t c = 0; c < count; ++c) {
        cases.push_back({static_cast<int64_t>(c), pick()});
      }
      builder.CreateSwitch(selector, pick(), cases, loc);
    }
  }
  fn->Finalize();
  return module;
}

TEST(ControlDependenceTest, MatchesReferenceOnRandomCfgs) {
  DeterministicRng rng(20131103);
  size_t edges = 0;
  for (int i = 0; i < 200; ++i) {
    size_t n = 1 + rng.NextBounded(i < 100 ? 12 : 48);
    auto module = RandomCfg(rng, n);
    edges += CheckFunction(*module->functions().front(), "random cfg " + std::to_string(i));
  }
  EXPECT_GT(edges, 1000u);
}

TEST(ControlDependenceTest, ForeignBlocksAndBranchesAreEmpty) {
  DeterministicRng rng(7);
  auto a = RandomCfg(rng, 16);
  auto b = RandomCfg(rng, 16);
  const Function& fa = *a->functions().front();
  const Function& fb = *b->functions().front();
  ControlDependence index(fa);
  for (const auto& block : fb.blocks()) {
    EXPECT_TRUE(index.DirectDeps(block.get()).empty());
    EXPECT_TRUE(index.TransitiveDeps(block.get()).empty());
    if (const Instruction* term = block->terminator()) {
      for (int edge = 0; edge < static_cast<int>(term->successors().size()); ++edge) {
        EXPECT_TRUE(index.Region(term, edge).empty());
        EXPECT_TRUE(index.DirectRegion(term, edge).empty());
      }
    }
  }
}

}  // namespace
}  // namespace spex
