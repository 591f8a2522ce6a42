// spex::Session — the stable embeddable API over the whole pipeline.
//
// The paper's tool is meant to live *inside* a vendor's process: infer
// constraints once, then check every user config (and re-run injection
// campaigns) for as long as the service is up. Session is the one way to
// load and run a target: it owns the parse -> lower -> annotate -> infer
// wiring (one load path for corpus targets and caller sources alike) plus
// the long-lived resources: the ApiRegistry, the accumulated diagnostics,
// the one campaign worker pool, and a boundary string-pool epoch so
// interned boundary strings are reclaimed when the session ends.
//
//   spex::Session session;
//   spex::Target* target = session.LoadTarget("squid");          // or LoadSource(...)
//   const spex::ModuleConstraints& c = target->InferConstraints();
//   for (const spex::Violation& v : target->CheckConfig(user_conf, "user.conf"))
//     std::cerr << v.ToString() << "\n";                          // pre-flight checker
//   spex::CheckOptions dynamic{spex::CheckMode::kDynamic};       // observed reactions
//   for (const spex::Violation& v : target->CheckConfig(user_conf, "user.conf", dynamic))
//     std::cerr << v.ToString() << "\n";   // "... | observed: silent violation — ..."
//   spex::CampaignSummary s = target->RunCampaign();              // SPEX-INJ
//
// Thread-safety: a loaded Target's analysis is immutable, so any number of
// threads may call InferConstraints()/CheckConfig() on the same Target (or
// different Targets) concurrently — in *either* check mode: static checks
// are pure reads, and dynamic checks replay on campaign-owned probe
// contexts over an internally synchronized snapshot cache. LoadSource()/
// LoadTarget()/ok()/RenderDiagnostics() are internally synchronized, and
// loads run their analysis outside the session lock, so concurrent loads
// overlap and never block ok() or worker_pool(). RunCampaign(), sharded
// batches and corpus runs may also run concurrently: they share the
// session's worker pool, and each call waits only for its own pool tasks.
#ifndef SPEX_API_SESSION_H_
#define SPEX_API_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/batch_check.h"
#include "src/api/config_checker.h"
#include "src/api/config_set.h"
#include "src/core/engine.h"
#include "src/corpus/synthesizer.h"
#include "src/design/manual_model.h"
#include "src/matrix/matrix_check.h"
#include "src/support/string_pool.h"
#include "src/support/thread_pool.h"

namespace spex {

class Target;

// Everything one load produced: the target's inputs, its IR and the
// inferred constraints. Immutable once loaded (Target::analysis()).
struct TargetAnalysis {
  TargetBundle bundle;
  std::unique_ptr<Module> module;
  ModuleConstraints constraints;
  ManualModel manual;
  size_t lines_of_annotation = 0;
};

// One target of a corpus run (Session::RunCorpusCampaigns). `target` is
// null when its load failed; the error is in the session's diagnostics.
struct CorpusCampaignResult {
  Target* target = nullptr;
  CampaignSummary summary;
};

struct SessionOptions {
  // Constraint-inference knobs (confidence threshold etc.).
  SpexOptions engine;
  // Worker pool shared by every parallel campaign, sharded batch and
  // corpus run of this session: 0 = hardware concurrency. The pool is
  // created lazily on first use.
  size_t campaign_threads = 0;
  // Extra ApiRegistry declarations (the Storage-A mechanism), parsed on
  // top of the built-in C surface at construction.
  std::string custom_api_spec;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Loads a target from MiniC source plus mapping annotations. `sut` and
  // `template_config` may be left empty when only InferConstraints()/
  // CheckConfig() are needed; RunCampaign additionally requires both (the
  // SUT's driver functions and the baseline config every injection mutates
  // — without a template, campaigns would run against an empty config).
  // Returns null and records diagnostics on parse/lowering errors; on
  // success the Target is owned by the session and the pointer is stable
  // for its lifetime.
  Target* LoadSource(std::string_view source, std::string_view annotations,
                     std::string_view name = "target.c",
                     ConfigDialect dialect = ConfigDialect::kKeyEqualsValue, SutSpec sut = {},
                     std::string_view template_config = {});

  // Loads one of the synthesized corpus targets ("mysql", "squid", ...).
  // An unknown name returns null and records a diagnostic naming it.
  Target* LoadTarget(const std::string& name);

  // Version-matrix checking: every config in `configs` checked against
  // every version in `versions` ("which upgrade breaks whose config").
  // Each version loads as a session-owned Target (corpus name or
  // LoadSource triple — src/matrix/version_set.h) and its column runs as
  // one CheckConfigBatch, so every cell is bit-identical to an
  // independent fleet check of that version and each column keeps the
  // batch layer's cross-config dedup. Adjacent checked columns are
  // diffed into per-config regression/fix/changed-reaction/stable
  // transitions (src/matrix/matrix_diff.h). With options.store attached,
  // every version gets its own store scope automatically, so a warm
  // matrix refresh after one version bump replays only the bumped
  // column. Version load failures are contained per column; `observer`
  // streams cells/columns/transitions on the calling thread.
  //
  // Thread-safety follows CheckConfigBatch: columns at any
  // options.num_threads may run concurrently with anything.
  MatrixSummary CheckMatrix(std::span<const TargetVersion> versions,
                            std::span<const ConfigInput> configs,
                            const MatrixOptions& options = {},
                            MatrixObserver* observer = nullptr);

  // Sharded corpus regeneration: each target name is loaded into this
  // session (LoadTarget) and runs one serial default campaign
  // (Target::RunCampaign()), one target per task on the session's worker
  // pool. Results follow `target_names`' order and every summary equals a
  // serial campaign of a fresh load. Safe concurrently with the session's
  // other campaigns and checks.
  std::vector<CorpusCampaignResult> RunCorpusCampaigns(
      const std::vector<std::string>& target_names);

  const ApiRegistry& apis() const { return apis_; }
  const SessionOptions& options() const { return options_; }
  // Diagnostics accumulate across loads for reporting, but failure is per
  // load: a bad source returns nullptr from its own Load* call without
  // poisoning later loads. ok() is cumulative ("did any load fail").
  bool ok() const;
  std::string RenderDiagnostics() const;

  // The shared campaign pool (created on first use). Exposed for embedders
  // that want to run their own fan-outs on session-owned threads.
  ThreadPool* worker_pool();

 private:
  friend class Target;

  // The one load path: parse -> lower -> annotate -> infer -> manual on a
  // local DiagnosticEngine, stopping at the first step that reports an
  // error. Only publishing the diagnostics and the Target takes mutex_.
  Target* Load(TargetBundle bundle, const std::string& file_name);

  SessionOptions options_;
  ApiRegistry apis_;
  DiagnosticEngine diags_;
  // Ties boundary-pool growth to the session: RtValue::Str interning done
  // on behalf of this session is reclaimed when the last session closes.
  StringPoolEpoch boundary_epoch_;
  // Guards diags_, targets_ growth and pool creation (mutable: the const
  // diagnostic accessors lock it too). Never held during an analysis.
  mutable std::mutex mutex_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Target>> targets_;
};

// A loaded-and-analyzed system: constraints plus everything needed to
// check configs and run injection campaigns against it. Owned by (and
// never outliving) its Session.
class Target {
 public:
  const std::string& name() const { return analysis_.bundle.name; }
  ConfigDialect dialect() const { return analysis_.bundle.dialect; }
  // Full analysis access for table/bench consumers (bundle, module, manual).
  const TargetAnalysis& analysis() const { return analysis_; }

  // The inferred constraint set (computed at load; immutable afterwards).
  const ModuleConstraints& InferConstraints() const { return analysis_.constraints; }

  // The paper's user-facing checker: flag type, range, unit, case and
  // control-dependency violations in a concrete config file, each with the
  // offending file:line and the source location of the constraint. Pure
  // read — safe from any number of threads concurrently.
  std::vector<Violation> CheckConfig(std::string_view config_text,
                                     std::string_view file_name = "config") const;

  // Mode-selecting overload. CheckMode::kStatic behaves exactly like the
  // two-argument form; CheckMode::kDynamic additionally replays the
  // settings that deviate from the target's template through the
  // interpreter + simulated OS — restoring the injection campaign's
  // per-key-set prefix snapshots where available — and attaches the
  // observed Table-3 reaction, log evidence and a "what the system will
  // do" prediction to each Violation (plus kDynamicReaction findings for
  // vulnerabilities the static pass cannot see). Dynamic verdicts are
  // bit-identical to a ground-truth full replay: the campaign's per-run
  // hazard check and first-use verification gate every snapshot shortcut.
  //
  // Dynamic checks share the target's persistent campaign, so a check
  // after RunCampaign() (or after an earlier check of the same keys)
  // replays from warm snapshots without building new ones; a check with no
  // campaign yet lazily creates one with default CampaignOptions. Targets
  // loaded without a template or without a SUT driver surface (parse/init
  // functions) silently degrade to the static result — there is nothing to
  // replay against. Safe from any number of threads concurrently (on one
  // shared Target or across Targets), and concurrently with RunCampaign().
  //
  // Deliberately non-const (even in kStatic mode): dynamic mode
  // materializes the target's persistent campaign, the same mutation
  // RunCampaign performs. Callers holding a const Target* use the
  // two-argument overload — the static check is the only mode a const
  // handle can express.
  std::vector<Violation> CheckConfig(std::string_view config_text, std::string_view file_name,
                                     const CheckOptions& options);

  // Fleet checking: checks every config in `configs` against this target
  // in one pass. Per config this is exactly CheckConfig(text, name,
  // options.check) — same violations, same observed reactions, bit-
  // identical at every options.num_threads — but suspects are
  // deduplicated *across* configs by execution identity, so each unique
  // user mistake replays once and its Table-3 verdict fans out to every
  // config that contributed it (BatchSummary::unique_replays vs.
  // total_suspects; see src/api/batch_check.h for the identity
  // guarantee). `observer` streams one OnConfigChecked per config, on the
  // calling thread, in batch order.
  //
  // Thread-safety: any number of batches may run concurrently, with each
  // other, with dynamic checks and with RunCampaign. Sharded batches
  // (num_threads != 1) run on the session worker pool; each waits only
  // for its own pool tasks.
  BatchSummary CheckConfigBatch(std::span<const ConfigInput> configs,
                                const BatchOptions& options = {},
                                BatchObserver* observer = nullptr);

  // Multi-file fleet checking: each ConfigSetInput is an include tree
  // (files[0] the root) that is resolved to its flattened effective
  // config (src/api/config_set.h) and then checked through
  // CheckConfigBatch — so a suspect's execution identity is the
  // *effective* value, and two sets differing only in include structure
  // deduplicate to the same replay. Per set the result is bit-identical
  // to checking the serialized effective config as a single file (same
  // violations, verdicts and counters, at every options.num_threads),
  // except that each violation's file/line point at the *winning*
  // assignment's origin and `override_note` records what it shadowed.
  // Resolution faults (missing includes, cycles, depth/file caps) are
  // contained per set: they land on the set's ResolvedConfigSet (written
  // to `resolutions` when non-null, batch order) and checking continues
  // with the partial effective config; only a set whose root cannot be
  // loaded carries kInvalidArgument in its report. `observer` streams
  // per-set reports on the calling thread in batch order — after the
  // whole batch, since provenance rewriting happens batch-wide.
  // Thread-safety matches CheckConfigBatch.
  BatchSummary CheckConfigSet(std::span<const ConfigSetInput> sets,
                              const BatchOptions& options = {},
                              BatchObserver* observer = nullptr,
                              std::vector<ResolvedConfigSet>* resolutions = nullptr,
                              const ConfigSetOptions& set_options = {});

  // As CheckConfigSet, but over sets the caller already resolved (e.g.
  // spexcheck's --include-roots, which resolves against the filesystem
  // rather than an in-memory file list). Same guarantees and observer
  // contract; the resolution step is simply the caller's.
  BatchSummary CheckResolvedConfigSets(std::span<const ResolvedConfigSet> sets,
                                       const BatchOptions& options = {},
                                       BatchObserver* observer = nullptr);

  // SPEX-INJ through the façade: generates misconfigurations from the
  // inferred constraints (once, cached) and runs the campaign. The
  // campaign object persists across calls whose options differ at most in
  // num_threads, so repeated campaigns reuse prefix snapshots instead of
  // rebuilding them; `observer` streams per-run results. Parallel
  // campaigns (num_threads != 1) run on the session's worker pool; any
  // number of calls may run concurrently.
  CampaignSummary RunCampaign(CampaignOptions options = {},
                              CampaignObserver* observer = nullptr);

  // Cache counters of the persistent campaign (zeros before the first
  // RunCampaign) — lets embedders verify snapshot reuse across batches.
  CampaignCacheStats campaign_cache_stats();

  // Attaches a persistent cross-run verdict store (src/support/
  // verdict_store.h): dynamic checks and batches consult it before
  // replaying and append fresh verdicts after, so a re-check of an
  // unchanged fleet replays only never-before-seen executions. The store
  // is scoped by a fingerprint of everything that could change a verdict
  // — target source, annotations, SUT spec, template, campaign knobs — so
  // an edited target lands in a fresh scope and re-checks cold; stale
  // verdicts are structurally unreachable. Pass nullptr to detach.
  // Thread-safe; takes effect for checks that start after the call.
  void AttachVerdictStore(std::shared_ptr<VerdictStore> store);
  std::shared_ptr<VerdictStore> verdict_store();

  // The generated misconfiguration batch (MisconfigGenerator order, so
  // façade campaigns are bit-identical to a hand-driven RunAll).
  const std::vector<Misconfiguration>& Misconfigurations();

 private:
  friend class Session;

  Target(Session* session, TargetAnalysis analysis);
  // Generates the batch on first use; caller holds campaign_mutex_.
  const std::vector<Misconfiguration>& MisconfigsLocked();
  // The persistent campaign (created with default options on first use);
  // dynamic checks hold a shared_ptr so a concurrent RunCampaign that
  // swaps the campaign (changed options) cannot pull it out from under a
  // replay in flight.
  std::shared_ptr<InjectionCampaign> EnsureCampaign();
  // True when the target can be driven dynamically: a non-empty template
  // plus a module that defines the SUT's parse and init functions.
  bool SupportsDynamicCheck() const;
  // The verdict-store scope for this target under the current campaign
  // options — every verdict-affecting input folded into one string.
  // Caller holds campaign_mutex_.
  std::string StoreScopeLocked() const;

  Session* session_;
  TargetAnalysis analysis_;
  ConfigFile template_config_;

  std::mutex campaign_mutex_;  // Guards the members below.
  bool misconfigs_ready_ = false;
  std::vector<Misconfiguration> misconfigs_;
  CampaignOptions campaign_options_;
  std::shared_ptr<InjectionCampaign> campaign_;
  std::shared_ptr<VerdictStore> verdict_store_;
};

}  // namespace spex

#endif  // SPEX_API_SESSION_H_
