// End-to-end pipeline over corpus targets.
//
// Bundles the full SPEX flow for one synthesized system: parse + lower the
// MiniC source, run constraint inference, and (on demand) run the SPEX-INJ
// campaign.
//
// NOTE: the public entry point for new code is the spex::Session façade in
// src/api/session.h — it owns the registry/diagnostics/worker-pool/string-
// pool lifetimes and adds the user-facing ConfigChecker (static constraint
// checks plus the dynamic mode that replays user configs and reports the
// observed Table-3 reaction) and persistent campaigns whose snapshot cache
// both repeated campaigns and dynamic checks reuse. The free functions
// here are the one-shot layer underneath it, kept as thin stable shims for
// tests and existing drivers: AnalyzeTarget is what Session::LoadTarget
// runs, and RunCampaign builds a fresh (cold-cache) campaign per call,
// exactly as before the façade existed — no snapshot reuse, no dynamic
// checking. See docs/api.md for the façade's contract.
#ifndef SPEX_CORPUS_PIPELINE_H_
#define SPEX_CORPUS_PIPELINE_H_

#include <memory>

#include "src/core/engine.h"
#include "src/corpus/spec.h"
#include "src/corpus/synthesizer.h"
#include "src/design/manual_model.h"
#include "src/inject/campaign.h"

namespace spex {

struct TargetAnalysis {
  TargetBundle bundle;
  std::unique_ptr<Module> module;
  std::unique_ptr<SpexEngine> engine;
  ModuleConstraints constraints;
  ManualModel manual;
  size_t lines_of_annotation = 0;
};

// Synthesize + analyze one target. Aborts via diags on internal errors; a
// clean corpus never produces diagnostics. `engine_options` are the
// inference knobs (Session::LoadTarget forwards its SessionOptions.engine).
TargetAnalysis AnalyzeTarget(const TargetSpec& spec, const ApiRegistry& apis,
                             DiagnosticEngine* diags, SpexOptions engine_options = {});

// Generate misconfigurations from the inferred constraints and run the full
// injection campaign against the target; options.num_threads != 1 runs it
// on a pool owned by the call.
CampaignSummary RunCampaign(const TargetAnalysis& analysis, CampaignOptions options = {});

// One sharded corpus run: analysis + campaign summary for a target, plus
// any diagnostics its worker collected (empty for a clean corpus).
struct CorpusCampaignResult {
  std::string target;
  TargetAnalysis analysis;
  CampaignSummary summary;
  std::string diagnostics;
};

// Fans AnalyzeTarget + RunCampaign over a worker pool, one target (and one
// TargetAnalysis) per task, so corpus-wide tables regenerate in parallel.
// Results are written into pre-sized slots: order matches `target_names`
// and every summary is identical to a serial RunCampaign. `num_workers`
// follows the CampaignOptions::num_threads convention (0 = hardware
// concurrency); `options` applies to each inner campaign and defaults to
// serial, which is the right setting when the corpus itself is sharded.
std::vector<CorpusCampaignResult> RunCorpusCampaigns(
    const std::vector<std::string>& target_names, const ApiRegistry& apis,
    CampaignOptions options = {}, size_t num_workers = 0, SpexOptions engine_options = {});

}  // namespace spex

#endif  // SPEX_CORPUS_PIPELINE_H_
