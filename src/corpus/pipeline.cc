#include "src/corpus/pipeline.h"

#include <algorithm>
#include <atomic>

#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/thread_pool.h"

namespace spex {

TargetAnalysis AnalyzeTarget(const TargetSpec& spec, const ApiRegistry& apis,
                             DiagnosticEngine* diags, SpexOptions engine_options) {
  TargetAnalysis analysis;
  analysis.bundle = SynthesizeTarget(spec);
  auto unit = ParseSource(analysis.bundle.source, spec.name + ".c", diags);
  analysis.module = LowerToIr(*unit, diags);
  analysis.engine = std::make_unique<SpexEngine>(*analysis.module, apis, engine_options);
  AnnotationFile annotations = ParseAnnotations(analysis.bundle.annotations, diags);
  analysis.lines_of_annotation = annotations.lines_of_annotation;
  analysis.constraints = analysis.engine->Run(annotations, diags);
  analysis.manual = ManualModel::Parse(analysis.bundle.manual_text, diags);
  return analysis;
}

CampaignSummary RunCampaign(const TargetAnalysis& analysis, CampaignOptions options) {
  MisconfigGenerator generator;
  std::vector<Misconfiguration> configs = generator.Generate(analysis.constraints);
  InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment(), options);
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
  const size_t workers =
      ThreadPool::ResolveThreadCount(options.num_threads < 0 ? 1 : static_cast<size_t>(options.num_threads));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) {
    pool = std::make_unique<ThreadPool>(workers);
  }
  return campaign.RunAll(template_config, configs, nullptr, pool.get(), workers);
}

std::vector<CorpusCampaignResult> RunCorpusCampaigns(
    const std::vector<std::string>& target_names, const ApiRegistry& apis,
    CampaignOptions options, size_t num_workers, SpexOptions engine_options) {
  std::vector<CorpusCampaignResult> results(target_names.size());
  if (target_names.empty()) {
    return results;
  }
  size_t worker_count =
      std::min(ThreadPool::ResolveThreadCount(num_workers), target_names.size());

  // Each task owns one target end to end (analysis, generation, campaign)
  // and writes its pre-sized slot; the ApiRegistry is shared read-only.
  auto run_target = [&](size_t index) {
    CorpusCampaignResult& slot = results[index];
    slot.target = target_names[index];
    DiagnosticEngine diags;
    slot.analysis = AnalyzeTarget(FindTarget(slot.target), apis, &diags, engine_options);
    slot.summary = RunCampaign(slot.analysis, options);
    if (diags.HasErrors()) {
      slot.diagnostics = diags.Render();
    }
  };

  // One shard per worker, each draining a shared cursor: target costs
  // differ by an order of magnitude, so contiguous shards would idle.
  std::atomic<size_t> next_index{0};
  ThreadPool pool(worker_count);
  pool.ShardRange(worker_count, worker_count, [&](size_t, size_t) {
    for (size_t i = next_index.fetch_add(1); i < results.size(); i = next_index.fetch_add(1)) {
      run_target(i);
    }
  });
  return results;
}

}  // namespace spex
