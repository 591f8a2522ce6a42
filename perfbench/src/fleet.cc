// fleet-cold and fleet-recheck: squid fleets checked through the batch
// layer, as `spexcheck --target squid` would on its first run and on a
// nightly re-check against a warm verdict store.
#include <filesystem>
#include <iostream>
#include <set>

#include "bench.h"
#include "inputs.h"
#include "layers.h"
#include "src/support/verdict_store.h"

namespace perfbench {
namespace {

// Iteration 0 warms the process up (first-touch pages, pool threads) and
// is checked but not timed.
constexpr size_t kMinIterations = 4;

// Time from the start of the batch to each streamed report.
class VerdictClock : public spex::BatchObserver {
 public:
  void OnConfigChecked(size_t, const spex::ConfigReport&) override {
    at_.push_back(Clock::now());
  }
  const std::vector<Clock::time_point>& at() const { return at_; }

 private:
  std::vector<Clock::time_point> at_;
};

spex::BatchOptions FleetBatchOptions() {
  spex::BatchOptions options;
  options.check.mode = spex::CheckMode::kDynamic;
  options.num_threads = 0;  // The spexcheck default: the session pool at full width.
  return options;
}

std::vector<std::string> Fingerprints(const spex::BatchSummary& summary) {
  std::vector<std::string> out;
  for (const spex::ConfigReport& report : summary.reports) {
    out.push_back(ReportFingerprint(report));
  }
  return out;
}

// Records one batch: failures and its agreement with the first batch of
// the run, and unless it is the process's warm-up batch, its latency and
// throughput.
void RecordBatch(const spex::BatchSummary& summary, Clock::time_point start,
                 Clock::time_point end, const VerdictClock& clock, bool warmup,
                 std::vector<std::string>* first, Outcome* out) {
  if (!warmup) {
    for (Clock::time_point at : clock.at()) {
      out->latency_ms.push_back(MillisBetween(start, at));
    }
    out->items_per_s.push_back(static_cast<double>(summary.configs_checked) /
                               (MillisBetween(start, end) / 1000.0));
  }
  out->attempted += summary.configs_checked;
  out->failed += summary.configs_with_errors;
  std::vector<std::string> prints = Fingerprints(summary);
  if (first->empty()) {
    *first = std::move(prints);
  } else {
    out->wrong_verdicts += CountMismatches(*first, prints);
  }
}

void AddBatchLayers(const spex::BatchSummary& summary, double wall_ms, double children_ms,
                    LayerSample* sample) {
  LayerSample& s = *sample;
  s["batch.wall_ms"] = wall_ms;
  s["batch.self_ms"] = wall_ms - children_ms;
  s["batch.total_suspects"] = static_cast<double>(summary.total_suspects);
  s["batch.unique_replays"] = static_cast<double>(summary.unique_replays);
  s["batch.dedup_ratio"] = summary.DedupRatio();
  s["batch.finalized_overlapped"] = static_cast<double>(summary.finalized_overlapped);
}

std::vector<spex::ConfigInput> EffectiveConfigs(const std::vector<spex::ResolvedConfigSet>& sets) {
  std::vector<spex::ConfigInput> configs;
  for (const spex::ResolvedConfigSet& set : sets) {
    configs.push_back(spex::ConfigInput{set.name, set.effective.Serialize()});
  }
  return configs;
}

std::vector<spex::ResolvedConfigSet> ResolveAll(const std::vector<spex::ConfigSetInput>& sets,
                                                spex::ConfigDialect dialect) {
  std::vector<spex::ResolvedConfigSet> resolved;
  for (const spex::ConfigSetInput& set : sets) {
    resolved.push_back(spex::ResolveConfigSet(set.files, dialect));
    resolved.back().name = set.name;
  }
  return resolved;
}

spex::StoredVerdict ToStored(const spex::InjectionResult& result) {
  return spex::StoredVerdict{static_cast<uint8_t>(result.category), result.pinpointed,
                             result.tests_run, result.detail, result.logs};
}

}  // namespace

Outcome RunFleetCold(const RunOptions& options) {
  Outcome out;
  out.item = "configs";
  // The harness session only generates the inputs; every timed batch runs
  // on a fresh session of its own.
  std::vector<spex::ConfigInput> configs;
  {
    spex::Session harness;
    configs = MakeColdFleet(FleetGenerator(LoadOrDie(&harness, "squid"), options.seed));
  }
  const spex::BatchOptions batch_options = FleetBatchOptions();
  std::unique_ptr<spex::ThreadPool> pool;
  if (options.trace) {
    pool = std::make_unique<spex::ThreadPool>(spex::ThreadPool::ResolveThreadCount(0));
  }

  ResetPeakRss();
  std::vector<std::string> first;
  const Clock::time_point begin = Clock::now();
  for (size_t iteration = 0;
       iteration < kMinIterations || MillisSince(begin) < options.seconds * 1000; ++iteration) {
    const bool traced = options.trace && iteration % 2 == 1;
    Clock::time_point setup_start = Clock::now();
    auto session = std::make_unique<spex::Session>();
    spex::Target* target = LoadOrDie(session.get(), "squid");
    Clock::time_point setup_end = Clock::now();
    if (iteration > 0) {
      out.setup_s.push_back(MillisBetween(setup_start, setup_end) / 1000.0);
    }

    VerdictClock clock;
    Clock::time_point start = Clock::now();
    spex::BatchSummary summary = target->CheckConfigBatch(configs, batch_options, &clock);
    Clock::time_point end = Clock::now();
    RecordBatch(summary, start, end, clock, iteration == 0, &first, &out);
    if (options.trace && iteration > 0) {
      (traced ? out.traced_ms : out.untraced_ms).push_back(MillisBetween(start, end));
    }
    if (traced) {
      Tracer& tracer = out.tracer;
      LayerSample sample;
      int64_t setup_span = tracer.Record("setup", setup_start, setup_end, -1, -1);
      int64_t batch_span = tracer.Record("batch", start, end, -1, -1);
      for (size_t i = 0; i < clock.at().size(); ++i) {
        tracer.Record("config.verdict", start, clock.at()[i], batch_span, static_cast<int64_t>(i));
      }
      TraceLoad("squid", session->apis(), &tracer, setup_span, &sample);
      CheckPath path = RunCheckPath(*target, configs, pool.get(), &tracer, batch_span, &sample);
      ReplayTiming replay = TraceReplay(*target, path.unique, pool.get(), &tracer, batch_span);
      AddReplayLayers(replay, target->campaign_cache_stats(), &sample);
      AddBatchLayers(summary, MillisBetween(start, end), path.wall_ms + replay.sharded_ms,
                     &sample);
      out.layer_samples.push_back(std::move(sample));
    }
  }
  out.peak_rss_mib = PeakRssMiB();

  // Gate: the first batch must equal a serial, snapshot-free check.
  spex::BatchOptions reference_options;
  reference_options.check.mode = spex::CheckMode::kDynamic;
  reference_options.check.use_parse_snapshot = false;
  reference_options.num_threads = 1;
  spex::Session reference_session;
  spex::BatchSummary reference =
      LoadOrDie(&reference_session, "squid")->CheckConfigBatch(configs, reference_options);
  out.wrong_verdicts += CountMismatches(first, Fingerprints(reference));
  return out;
}

Outcome RunFleetRecheck(const RunOptions& options) {
  Outcome out;
  out.item = "configs";
  // The harness session generates the inputs and the expected store
  // counts, and is released before the timed batches.
  auto harness = std::make_unique<spex::Session>();
  spex::Target* harness_target = LoadOrDie(harness.get(), "squid");
  const RecheckFleet recheck = MakeRecheckFleet(FleetGenerator(harness_target, options.seed));
  const spex::BatchOptions batch_options = FleetBatchOptions();
  const spex::ConfigDialect dialect = harness_target->dialect();
  const std::string pristine = options.work_dir + "/recheck-pristine.vst";
  const std::string live = options.work_dir + "/recheck.vst";

  // Seed the store from yesterday's fleet, outside all timing.
  RemoveStore(pristine);
  {
    spex::Session session;
    spex::Target* target = LoadOrDie(&session, "squid");
    target->AttachVerdictStore(spex::VerdictStore::Open(pristine));
    target->CheckConfigSet(recheck.seeded, batch_options);
  }
  // Which executions the store must serve: those the seeded fleet had.
  CheckPath seeded = RunCheckPath(*harness_target,
                                  EffectiveConfigs(ResolveAll(recheck.seeded, dialect)), nullptr);
  const std::set<std::string> seeded_set(seeded.unique_keys.begin(), seeded.unique_keys.end());
  const std::vector<std::string> current_keys =
      RunCheckPath(*harness_target, EffectiveConfigs(ResolveAll(recheck.current, dialect)),
                   nullptr)
          .unique_keys;
  size_t expected_hits = 0;
  for (const std::string& key : current_keys) {
    expected_hits += seeded_set.count(key);
  }
  const size_t expected_misses = current_keys.size() - expected_hits;

  // The traced run's own store: the same record count and shapes, under a
  // scope this benchmark owns, so Lookup and AppendBatch can be timed.
  std::unique_ptr<spex::ThreadPool> pool;
  const std::string shadow_pristine = options.work_dir + "/recheck-shadow-pristine.vst";
  const std::string shadow_live = options.work_dir + "/recheck-shadow.vst";
  if (options.trace) {
    pool = std::make_unique<spex::ThreadPool>(spex::ThreadPool::ResolveThreadCount(0));
    Tracer discarded;  // Store seeding is not a traced span.
    ReplayTiming replay = TraceReplay(*harness_target, seeded.unique, pool.get(), &discarded, -1);
    RemoveStore(shadow_pristine);
    std::shared_ptr<spex::VerdictStore> store = spex::VerdictStore::Open(shadow_pristine);
    uint64_t scope = store->ResolveScope("perfbench-shadow");
    std::vector<spex::VerdictAppend> appends;
    for (size_t i = 0; i < seeded.unique.size(); ++i) {
      appends.push_back(
          spex::VerdictAppend{scope, seeded.unique_keys[i], ToStored(replay.results[i])});
    }
    store->AppendBatch(std::move(appends));
  }
  seeded = CheckPath{};
  harness.reset();

  ResetPeakRss();
  std::vector<std::string> first;
  const Clock::time_point begin = Clock::now();
  for (size_t iteration = 0;
       iteration < kMinIterations || MillisSince(begin) < options.seconds * 1000; ++iteration) {
    const bool traced = options.trace && iteration % 2 == 1;
    std::filesystem::copy_file(pristine, live, std::filesystem::copy_options::overwrite_existing);
    Clock::time_point setup_start = Clock::now();
    auto session = std::make_unique<spex::Session>();
    spex::Target* target = LoadOrDie(session.get(), "squid");
    Clock::time_point open_start = Clock::now();
    std::shared_ptr<spex::VerdictStore> store = spex::VerdictStore::Open(live);
    Clock::time_point open_end = Clock::now();
    target->AttachVerdictStore(store);
    Clock::time_point setup_end = Clock::now();
    if (iteration > 0) {
      out.setup_s.push_back(MillisBetween(setup_start, setup_end) / 1000.0);
    }

    VerdictClock clock;
    Clock::time_point start = Clock::now();
    spex::BatchSummary summary = target->CheckConfigSet(recheck.current, batch_options, &clock);
    Clock::time_point end = Clock::now();
    RecordBatch(summary, start, end, clock, iteration == 0, &first, &out);
    // The store must serve exactly the unchanged executions.
    out.wrong_verdicts += summary.store_hits != expected_hits ? 1 : 0;
    out.wrong_verdicts += summary.store_misses != expected_misses ? 1 : 0;
    if (options.trace && iteration > 0) {
      (traced ? out.traced_ms : out.untraced_ms).push_back(MillisBetween(start, end));
    }
    if (traced) {
      Tracer& tracer = out.tracer;
      LayerSample sample;
      int64_t setup_span = tracer.Record("setup", setup_start, setup_end, -1, -1);
      tracer.Record("verdict_store.open", open_start, open_end, setup_span, -1);
      int64_t batch_span = tracer.Record("batch", start, end, -1, -1);
      for (size_t i = 0; i < clock.at().size(); ++i) {
        tracer.Record("config.verdict", start, clock.at()[i], batch_span, static_cast<int64_t>(i));
      }
      TraceLoad("squid", session->apis(), &tracer, setup_span, &sample);
      sample["verdict_store.open_ms"] = MillisBetween(open_start, open_end);

      std::vector<spex::ResolvedConfigSet> resolved;
      double resolve_ms = tracer.Time("config_set.resolve", batch_span, -1, [&] {
        resolved = ResolveAll(recheck.current, dialect);
      });
      sample["config_set.resolve_ms"] = resolve_ms;
      for (const spex::ResolvedConfigSet& set : resolved) {
        sample["config_set.files"] += static_cast<double>(set.files_resolved);
      }
      CheckPath path = RunCheckPath(*target, EffectiveConfigs(resolved), pool.get(), &tracer,
                                    batch_span, &sample);

      std::vector<spex::Misconfiguration> misses;
      std::vector<std::string> miss_keys;
      for (size_t i = 0; i < path.unique.size(); ++i) {
        if (seeded_set.count(path.unique_keys[i]) == 0) {
          misses.push_back(path.unique[i]);
          miss_keys.push_back(path.unique_keys[i]);
        }
      }
      ReplayTiming replay = TraceReplay(*target, misses, pool.get(), &tracer, batch_span);
      AddReplayLayers(replay, target->campaign_cache_stats(), &sample);

      std::filesystem::copy_file(shadow_pristine, shadow_live,
                                 std::filesystem::copy_options::overwrite_existing);
      double store_ms = 0;
      {
        std::shared_ptr<spex::VerdictStore> shadow = spex::VerdictStore::Open(shadow_live);
        const uint64_t scope = shadow->ResolveScope("perfbench-shadow");
        spex::StoredVerdict verdict;
        double lookup_ms = tracer.Time("verdict_store.lookup", batch_span, -1, [&] {
          for (const std::string& key : path.unique_keys) {
            shadow->Lookup(scope, key, &verdict);
          }
        });
        std::vector<spex::VerdictAppend> appends;
        for (size_t i = 0; i < misses.size(); ++i) {
          appends.push_back(spex::VerdictAppend{scope, miss_keys[i], ToStored(replay.results[i])});
        }
        double append_ms = tracer.Time("verdict_store.append", batch_span, -1,
                                       [&] { shadow->AppendBatch(std::move(appends)); });
        sample["verdict_store.lookup_us"] =
            path.unique_keys.empty() ? 0 : lookup_ms * 1000.0 / path.unique_keys.size();
        sample["verdict_store.append_ms"] = append_ms;
        store_ms = lookup_ms + append_ms;
      }
      const double lookups = static_cast<double>(summary.store_hits + summary.store_misses);
      sample["verdict_store.hit_ratio"] = lookups > 0 ? summary.store_hits / lookups : 0;
      sample["verdict_store.appends"] = static_cast<double>(summary.store_appends);
      sample["verdict_store.bytes"] = static_cast<double>(std::filesystem::file_size(live));
      AddBatchLayers(summary, MillisBetween(start, end),
                     resolve_ms + path.wall_ms + replay.sharded_ms + store_ms, &sample);
      out.layer_samples.push_back(std::move(sample));
    }
    store.reset();
    session.reset();  // Releases the store's writer lock before the next restore.
  }
  out.peak_rss_mib = PeakRssMiB();

  // Gate: the same trees checked live, without a store.
  spex::BatchOptions reference_options = batch_options;
  reference_options.num_threads = 1;
  spex::Session reference_session;
  spex::BatchSummary reference = LoadOrDie(&reference_session, "squid")
                                     ->CheckConfigSet(recheck.current, reference_options);
  out.wrong_verdicts += CountMismatches(first, Fingerprints(reference));
  if (expected_misses == 0 || recheck.drifted == 0) {
    std::cerr << "spexbench: fleet-recheck generated no drifted executions\n";
    out.wrong_verdicts += 1;
  }
  std::cout << "# fleet-recheck: " << current_keys.size() << " unique executions, "
            << expected_hits << " expected store hits, " << expected_misses
            << " expected misses, " << recheck.drifted << " drifted trees\n";
  RemoveStore(live);
  RemoveStore(pristine);
  RemoveStore(shadow_live);
  RemoveStore(shadow_pristine);
  return out;
}

}  // namespace perfbench
