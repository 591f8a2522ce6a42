// Shared scaffolding for spexbench: clocks, the benchmark's own seeded
// RNG, sample statistics, the in-memory span recorder and the outcome
// record every workload fills in.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}
inline double MillisSince(Clock::time_point begin) { return MillisBetween(begin, Clock::now()); }

// SplitMix64. The benchmark owns its generator so that its inputs stay the
// same when the program's own RNG changes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
  bool Chance(double probability) { return Unit() < probability; }
  // An independent stream for one config, request or target.
  Rng Fork(uint64_t salt) const;

 private:
  uint64_t state_;
};

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

// Peak resident set of this process (VmHWM), in MiB, since the last
// ResetPeakRss() or since start.
double PeakRssMiB();
// Returns freed heap to the system, then resets VmHWM to the current
// resident set, so a later PeakRssMiB() covers only what runs after it.
// Warns on stderr when the kernel refuses the reset.
void ResetPeakRss();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Verdict stores and the trace file live here.
};

// One finished span. `parent` indexes the span that caused it (-1 for a
// root); `id` is shared by every span of one config, request or campaign.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;
  int64_t id = -1;
};

// Spans stay in memory until Write() at exit.
class Tracer {
 public:
  int64_t Record(std::string name, Clock::time_point start, Clock::time_point end,
                 int64_t parent = -1, int64_t id = -1);
  // Runs fn() as a span and returns its duration in ms.
  template <typename Fn>
  double Time(std::string name, int64_t parent, int64_t id, Fn&& fn) {
    Clock::time_point start = Clock::now();
    fn();
    Clock::time_point end = Clock::now();
    Record(std::move(name), start, end, parent, id);
    return MillisBetween(start, end);
  }
  size_t size() const { return spans_.size(); }
  // One JSON object per line; times are ns since the first span.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Per-layer values from one traced iteration, by metric name.
using LayerSample = std::map<std::string, double>;

// What one workload invocation measured and verified.
struct Outcome {
  // What a unit of work is called in the throughput alias printed beside
  // the metrics: "configs", "checks" or "runs".
  std::string item;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_verdicts = 0;
  uint64_t degraded = 0;
  std::vector<double> setup_s;      // One sample per set-up.
  std::vector<double> latency_ms;   // Time to each verdict.
  std::vector<double> items_per_s;  // One sample per batch, round or window.
  // Peak resident memory of the workload's own sessions, servers and
  // batches: the mark is reset once the harness has generated the inputs
  // and released its sessions, and read after the last timed iteration,
  // before the correctness gate loads its references.
  double peak_rss_mib = 0;
  // Trace mode: the primary timed call per iteration, with and without the
  // per-layer decomposition running beside it.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<LayerSample> layer_samples;
  Tracer tracer;
};

// Every per-layer metric the traced run prints, with its unit. Layers a
// workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricTable();
// Each metric's median over the samples that carry it (0 when none does).
// Aborts on a name missing from LayerMetricTable.
MetricMap SummarizeLayers(const std::vector<LayerSample>& samples);

Outcome RunFleetCold(const RunOptions& options);
Outcome RunFleetRecheck(const RunOptions& options);
Outcome RunServeMixed(const RunOptions& options);
Outcome RunCampaignCorpus(const RunOptions& options);

// Prints every generated input of every workload for `seed`.
void DumpInputs(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
