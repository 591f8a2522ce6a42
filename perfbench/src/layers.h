// The per-layer decomposition of the traced run, and the canonical forms
// the correctness gates compare.
//
// The program records no spans of its own, so a traced iteration times
// each layer from here: right after the real call (a batch, a load, a
// campaign) it calls the same layer entry points on the same inputs, each
// call a span whose parent is the real call's span. A layer's time is the
// duration of its spans; the parent's self time is its wall time minus
// those children.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "src/api/session.h"
#include "src/support/thread_pool.h"

namespace perfbench {

// Loads `name` into `session`; exits the process when the load fails.
spex::Target* LoadOrDie(spex::Session* session, const std::string& name);

// Field-for-field canonical text of a report, a campaign result, or a
// violation as /check prints it.
std::string ReportFingerprint(const spex::ConfigReport& report);
std::string ResultFingerprint(const spex::InjectionResult& result);
std::string ViolationLine(const spex::Violation& violation);

// Number of positions where `a` and `b` differ (a length difference counts
// each missing entry).
size_t CountMismatches(const std::vector<std::string>& a, const std::vector<std::string>& b);

// The steps Session::LoadTarget runs for `name`, each timed as a span
// under `parent`: synthesize, parse, lower, annotate, infer.
void TraceLoad(const std::string& name, const spex::ApiRegistry& apis, Tracer* tracer,
               int64_t parent, LayerSample* sample);

// The per-config half of a batch over `configs`: parse, static check and
// suspect extraction, then dedup by execution identity. With a tracer,
// each phase runs over the whole batch on `pool` (as the batch shards it)
// as one span under `parent`, and the layer metrics land in `sample`.
struct CheckPath {
  std::vector<spex::Misconfiguration> unique;  // First occurrence of each execution.
  std::vector<std::string> unique_keys;        // Parallel to `unique`.
  double wall_ms = 0;                          // Sum of the phase spans.
};
CheckPath RunCheckPath(const spex::Target& target, std::span<const spex::ConfigInput> configs,
                       spex::ThreadPool* pool, Tracer* tracer = nullptr, int64_t parent = -1,
                       LayerSample* sample = nullptr);

// Replays `suspects` on two fresh benchmark-owned campaigns of `target`:
// serially, then sharded over `pool` (the batch's own schedule).
struct ReplayTiming {
  double serial_ms = 0;
  double sharded_ms = 0;
  spex::CampaignCacheStats serial;
  spex::CampaignCacheStats sharded;
  std::vector<spex::InjectionResult> results;
};
ReplayTiming TraceReplay(const spex::Target& target,
                         const std::vector<spex::Misconfiguration>& suspects,
                         spex::ThreadPool* pool, Tracer* tracer, int64_t parent);

// Adds the inject.* metrics: the shadow's timings plus `real`, the cache
// counters of the campaign the workload itself ran.
void AddReplayLayers(const ReplayTiming& timing, const spex::CampaignCacheStats& real,
                     LayerSample* sample);
void AddStats(spex::CampaignCacheStats* total, const spex::CampaignCacheStats& add);

// Deletes a verdict store file and its lock sidecar.
void RemoveStore(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
