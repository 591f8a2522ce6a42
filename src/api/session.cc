#include "src/api/session.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/hashing.h"
#include "src/support/verdict_store.h"

namespace spex {

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      apis_(ApiRegistry::BuiltinC()) {
  if (!options_.custom_api_spec.empty()) {
    apis_.ImportSpec(options_.custom_api_spec, &diags_);
  }
}

Session::~Session() = default;

ThreadPool* Session::worker_pool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::ResolveThreadCount(options_.campaign_threads));
  }
  return pool_.get();
}

ThreadPool* Session::PoolFor(int num_threads) {
  const size_t width = ThreadPool::ResolveThreadCount(options_.campaign_threads);
  return ThreadPool::WorkerCount(num_threads, width) > 1 ? worker_pool() : nullptr;
}

bool Session::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !diags_.HasErrors();
}

std::string Session::RenderDiagnostics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return diags_.Render();
}

Target* Session::Load(TargetBundle bundle, const std::string& file_name) {
  DiagnosticEngine diags;
  auto analyze = [&]() -> std::unique_ptr<Target> {
    TargetAnalysis analysis;
    analysis.bundle = std::move(bundle);
    auto unit = ParseSource(analysis.bundle.source, file_name, &diags);
    if (diags.HasErrors()) {
      return nullptr;
    }
    analysis.module = LowerToIr(*unit, &diags);
    if (diags.HasErrors()) {
      return nullptr;
    }
    AnnotationFile annotations = ParseAnnotations(analysis.bundle.annotations, &diags);
    if (diags.HasErrors()) {
      return nullptr;
    }
    analysis.lines_of_annotation = annotations.lines_of_annotation;
    analysis.constraints =
        SpexEngine(*analysis.module, apis_, options_.engine).Run(annotations, &diags);
    if (diags.HasErrors()) {
      return nullptr;
    }
    analysis.manual = ManualModel::Parse(analysis.bundle.manual_text, &diags);
    if (diags.HasErrors()) {
      return nullptr;
    }
    return std::unique_ptr<Target>(new Target(this, std::move(analysis)));
  };
  std::unique_ptr<Target> target = analyze();

  // Failure is per load: diagnostics accumulate for reporting, but a bad
  // load must not poison later loads of valid sources.
  std::lock_guard<std::mutex> lock(mutex_);
  diags_.Append(diags);
  if (target == nullptr) {
    return nullptr;
  }
  targets_.push_back(std::move(target));
  return targets_.back().get();
}

Target* Session::LoadSource(std::string_view source, std::string_view annotations,
                            std::string_view name, ConfigDialect dialect, SutSpec sut,
                            std::string_view template_config) {
  TargetBundle bundle;
  bundle.name = std::string(name);
  bundle.display_name = bundle.name;
  bundle.dialect = dialect;
  bundle.source = std::string(source);
  bundle.annotations = std::string(annotations);
  bundle.sut = std::move(sut);
  bundle.template_config = std::string(template_config);
  return Load(std::move(bundle), std::string(name));
}

Target* Session::LoadTarget(const std::string& name) {
  const TargetSpec* spec = LookupTarget(name);
  if (spec == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    diags_.Error(SourceLoc{}, "unknown corpus target '" + name + "'");
    return nullptr;
  }
  return Load(SynthesizeTarget(*spec), name + ".c");
}

std::vector<CorpusCampaignResult> Session::RunCorpusCampaigns(
    const std::vector<std::string>& target_names) {
  std::vector<CorpusCampaignResult> results(target_names.size());
  // One shard per worker, each draining a shared cursor: target costs
  // differ by an order of magnitude, so contiguous shards would idle. The
  // inner campaigns stay serial — a pool worker must never ShardRange on
  // its own pool.
  ThreadPool* pool = worker_pool();
  const size_t workers = std::min(pool->size(), target_names.size());
  std::atomic<size_t> next_index{0};
  pool->ShardRange(workers, workers, [&](size_t, size_t) {
    for (size_t i = next_index.fetch_add(1); i < results.size(); i = next_index.fetch_add(1)) {
      results[i].target = LoadTarget(target_names[i]);
      if (results[i].target != nullptr) {
        results[i].summary = results[i].target->RunCampaign();
      }
    }
  });
  return results;
}

Target::Target(Session* session, TargetAnalysis analysis)
    : session_(session),
      analysis_(std::move(analysis)),
      template_config_(ConfigFile::Parse(analysis_.bundle.template_config,
                                         analysis_.bundle.dialect)) {}

std::vector<Violation> Target::CheckConfig(std::string_view config_text,
                                           std::string_view file_name) const {
  return CheckConfigFile(analysis_.constraints, ConfigFile::Parse(config_text, dialect()),
                         file_name);
}

bool Target::SupportsDynamicCheck() const {
  return template_config_.SettingCount() > 0 && analysis_.module != nullptr &&
         analysis_.module->FindFunction(analysis_.bundle.sut.parse_function) != nullptr &&
         analysis_.module->FindFunction(analysis_.bundle.sut.init_function) != nullptr;
}

std::shared_ptr<InjectionCampaign> Target::EnsureCampaign() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  if (campaign_ == nullptr) {
    // First dynamic check before any RunCampaign: default options, so a
    // later default RunCampaign reuses this campaign (and its snapshots).
    campaign_ = std::make_shared<InjectionCampaign>(*analysis_.module, analysis_.bundle.sut,
                                                    OsSimulator::StandardEnvironment(),
                                                    campaign_options_);
    if (verdict_store_ != nullptr) {
      campaign_->AttachVerdictStore(verdict_store_, StoreScopeLocked());
    }
  }
  return campaign_;
}

namespace {

// One scope field, length-prefixed like the execution key itself: target
// sources and SUT specs are free text, so no separator is safe.
void AppendScopeField(std::string* scope, std::string_view field) {
  *scope += std::to_string(field.size());
  *scope += ':';
  *scope += field;
}

}  // namespace

std::string Target::StoreScopeLocked() const {
  // Everything that could change a replay's verdict besides the template
  // (the campaign folds the template in per call) — a change to any of
  // these lands stored verdicts in a fresh scope, so they re-check cold.
  // Deliberately absent: num_threads and use_parse_snapshot —
  // the bit-identity machinery guarantees verdicts do not depend on them.
  // Sources can be large, so they enter as stable 64-bit digests.
  const TargetBundle& bundle = analysis_.bundle;
  std::string scope = "spex-scope-v1|";
  AppendScopeField(&scope, bundle.name);
  scope += std::to_string(static_cast<int>(bundle.dialect));
  scope += '|';
  scope += std::to_string(Fnv1a64(bundle.source));
  scope += '|';
  scope += std::to_string(Fnv1a64(bundle.annotations));
  scope += '|';
  AppendScopeField(&scope, bundle.sut.parse_function);
  AppendScopeField(&scope, bundle.sut.init_function);
  scope += std::to_string(bundle.sut.tests.size());
  for (const TestCase& test : bundle.sut.tests) {
    AppendScopeField(&scope, test.name);
    AppendScopeField(&scope, test.function);
    scope += std::to_string(test.expected);
    scope += ',';
    scope += std::to_string(test.cost_hint);
    scope += ';';
  }
  for (const auto& [param, storage] : bundle.sut.param_storage) {
    AppendScopeField(&scope, param);
    AppendScopeField(&scope, storage);
  }
  scope += campaign_options_.stop_at_first_failure ? '1' : '0';
  scope += campaign_options_.sort_tests_by_cost ? '1' : '0';
  scope += std::to_string(campaign_options_.interp.max_steps);
  scope += ',';
  scope += std::to_string(campaign_options_.interp.max_call_depth);
  return scope;
}

void Target::AttachVerdictStore(std::shared_ptr<VerdictStore> store) {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  verdict_store_ = std::move(store);
  if (campaign_ != nullptr) {
    campaign_->AttachVerdictStore(verdict_store_, StoreScopeLocked());
  }
}

std::vector<Violation> Target::CheckConfig(std::string_view config_text,
                                           std::string_view file_name,
                                           const CheckOptions& options) {
  // A serial batch of one: dedup and fan-out merge nothing, since each
  // first-occurrence key is its own execution.
  const ConfigFile config = ConfigFile::Parse(config_text, dialect());
  const BatchConfig input{.name = file_name, .config = &config};
  return std::move(
      RunBatch({&input, 1}, BatchOptions{.check = options}, nullptr).reports.front().violations);
}

BatchSummary Target::RunBatch(std::span<const BatchConfig> configs, const BatchOptions& options,
                              BatchObserver* observer) {
  // Dynamic batches share the target's persistent campaign (and its
  // snapshot cache) with RunCampaign; targets that cannot be driven
  // dynamically degrade to the static result per config. The shared_ptr
  // keeps the campaign alive even if another thread swaps the target's
  // campaign for one with different options mid-batch.
  std::shared_ptr<InjectionCampaign> campaign;
  if (options.check.mode == CheckMode::kDynamic && SupportsDynamicCheck()) {
    campaign = EnsureCampaign();
  }
  return RunBatchCheck(analysis_.constraints, template_config_, dialect(), campaign.get(),
                       session_->PoolFor(options.num_threads), configs, options, observer);
}

BatchSummary Target::CheckConfigBatch(std::span<const ConfigInput> configs,
                                      const BatchOptions& options, BatchObserver* observer) {
  std::vector<BatchConfig> inputs(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    inputs[i].name = configs[i].name;
    inputs[i].text = configs[i].text;
  }
  return RunBatch(inputs, options, observer);
}

BatchSummary Target::CheckConfigSet(std::span<const ConfigSetInput> sets,
                                    const BatchOptions& options, BatchObserver* observer,
                                    std::vector<ResolvedConfigSet>* resolutions,
                                    const ConfigSetOptions& set_options) {
  auto resolve = [&](size_t i) {
    ResolvedConfigSet set = ResolveConfigSet(sets[i].files, dialect(), set_options);
    if (!sets[i].name.empty()) {
      set.name = sets[i].name;
    }
    return set;
  };
  return CheckResolvedSets(sets.size(), resolve, options, observer, resolutions);
}

BatchSummary Target::CheckConfigSet(std::span<const std::string> roots, ConfigSetSource& source,
                                    const BatchOptions& options, BatchObserver* observer,
                                    std::vector<ResolvedConfigSet>* resolutions,
                                    const ConfigSetOptions& set_options) {
  auto resolve = [&](size_t i) {
    return ResolveConfigSet(roots[i], source, dialect(), set_options);
  };
  return CheckResolvedSets(roots.size(), resolve, options, observer, resolutions);
}

BatchSummary Target::CheckResolvedSets(size_t count,
                                       const std::function<ResolvedConfigSet(size_t)>& resolve,
                                       const BatchOptions& options, BatchObserver* observer,
                                       std::vector<ResolvedConfigSet>* resolutions) {
  std::vector<ResolvedConfigSet> local;
  std::vector<ResolvedConfigSet>& resolved = resolutions != nullptr ? *resolutions : local;
  resolved.assign(count, ResolvedConfigSet{});
  // Each set resolves independently into its own slot, so a sharded batch
  // resolves on the pool with phase 1's shard count.
  auto resolve_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      resolved[i] = resolve(i);
    }
  };
  ThreadPool* pool = session_->PoolFor(options.num_threads);
  if (pool == nullptr) {
    resolve_range(0, count);
  } else {
    pool->ShardRange(count, ThreadPool::WorkerCount(options.num_threads, pool->size()),
                     resolve_range);
  }
  // The batch sees only the flattened configs, so dedup across sets keys
  // on effective values exactly as it does for single files. A set whose
  // status failed is not checked.
  std::vector<BatchConfig> inputs(count);
  for (size_t i = 0; i < count; ++i) {
    const ResolvedConfigSet& set = resolved[i];
    inputs[i] = {.name = set.name, .config = &set.effective, .status = set.status, .set = &set};
  }
  return RunBatch(inputs, options, observer);
}

const std::vector<Misconfiguration>& Target::MisconfigsLocked() {
  if (!misconfigs_ready_) {
    MisconfigGenerator generator;
    misconfigs_ = generator.Generate(analysis_.constraints);
    misconfigs_ready_ = true;
  }
  return misconfigs_;
}

const std::vector<Misconfiguration>& Target::Misconfigurations() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  return MisconfigsLocked();
}

CampaignSummary Target::RunCampaign(CampaignOptions options, CampaignObserver* observer) {
  // Everything about the campaign (snapshot cache, worker contexts) is
  // per-target state that persists across calls, so later batches reuse
  // the cached prefixes; the thread count is an input to each call, not
  // part of that state. The shared_ptr keeps the campaign alive for this
  // call even if a concurrent call with other options swaps it out.
  std::shared_ptr<InjectionCampaign> campaign;
  {
    // campaign_mutex_ is released before RunAll so observer callbacks (and
    // other threads) may call Misconfigurations()/campaign_cache_stats()
    // mid-campaign without deadlocking; misconfigs_ never changes once
    // generated.
    std::lock_guard<std::mutex> lock(campaign_mutex_);
    MisconfigsLocked();
    if (campaign_ == nullptr || !campaign_options_.SameBehavior(options)) {
      // Swapping options discards the old campaign's snapshot cache; a
      // check or campaign still replaying on it holds its own shared_ptr,
      // so the swap is safe (the old campaign dies with the last user).
      campaign_ = std::make_shared<InjectionCampaign>(
          *analysis_.module, analysis_.bundle.sut, OsSimulator::StandardEnvironment(),
          options);
      campaign_options_ = options;
      if (verdict_store_ != nullptr) {
        // Re-derive the scope: campaign knobs are part of it, so a
        // campaign with different behaviour reads/writes its own scope.
        campaign_->AttachVerdictStore(verdict_store_, StoreScopeLocked());
      }
    }
    campaign = campaign_;
  }
  ThreadPool* pool = session_->PoolFor(options.num_threads);
  const size_t workers =
      pool == nullptr ? 1 : ThreadPool::WorkerCount(options.num_threads, pool->size());
  return campaign->RunAll(template_config_, misconfigs_, observer, pool, workers);
}

CampaignCacheStats Target::campaign_cache_stats() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  return campaign_ != nullptr ? campaign_->cache_stats() : CampaignCacheStats{};
}

}  // namespace spex
