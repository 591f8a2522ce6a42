#include "bench.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng Rng::Fork(uint64_t salt) const {
  Rng mixer(state_ ^ (salt * 0xd1b54a32d192ed03ULL + 0x632be59bd9b4e019ULL));
  return Rng(mixer.Next());
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void ResetPeakRss() {
  ::malloc_trim(0);
  // "5" resets the peak resident set size (proc(5), /proc/pid/clear_refs).
  int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  const bool reset = fd >= 0 && ::write(fd, "5", 1) == 1;
  if (fd >= 0) {
    ::close(fd);
  }
  if (!reset) {
    std::cerr << "spexbench: cannot reset the peak resident set; peak_rss_mb includes the "
                 "harness\n";
  }
}

int64_t Tracer::Record(std::string name, Clock::time_point start, Clock::time_point end,
                       int64_t parent, int64_t id) {
  spans_.push_back(Span{std::move(name), start, end, parent, id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start);
  }
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << span.name << "\",\"start_ns\":" << ns(span.start)
        << ",\"end_ns\":" << ns(span.end) << ",\"parent\":" << span.parent
        << ",\"id\":" << span.id << "}\n";
  }
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricTable() {
  static const auto* kTable = [] {
    auto* table = new std::vector<std::pair<std::string, std::string>>{
        // Load path, summed over the targets a workload loads.
        {"corpus.synthesize_ms", "ms"},
        {"lang.parse_ms", "ms"},
        {"ir.lower_ms", "ms"},
        {"ir.blocks", "count"},
        {"mapping.annotate_ms", "ms"},
        {"core.infer_ms", "ms"},
        {"core.constraints", "count"},
        // Check path, per batch.
        {"confgen.parse_ms", "ms"},
        {"confgen.settings", "count"},
        {"config_set.resolve_ms", "ms"},
        {"config_set.files", "count"},
        {"config_checker.static_ms", "ms"},
        {"config_checker.violations", "count"},
        {"dynamic_check.suspects_ms", "ms"},
        {"dynamic_check.suspects", "count"},
        // Batch layer.
        {"batch.wall_ms", "ms"},
        {"batch.self_ms", "ms"},
        {"batch.total_suspects", "count"},
        {"batch.unique_replays", "count"},
        {"batch.dedup_ratio", "ratio"},
        {"batch.finalized_overlapped", "count"},
        // Replay engine.
        {"inject.replay_ms_serial", "ms"},
        {"inject.replay_ms_sharded", "ms"},
        {"inject.shard_speedup", "ratio"},
        {"inject.snapshots_built", "count"},
        {"inject.delta_replays", "count"},
        {"inject.full_replays", "count"},
        {"inject.verifications", "count"},
        {"inject.delta_share", "ratio"},
        {"inject.redundant_full_replays", "count"},
        // Campaigns.
        {"inject.campaign_ms.storage_a", "ms"},
        {"inject.campaign_ms.apache", "ms"},
        {"inject.campaign_ms.mysql", "ms"},
        {"inject.campaign_ms.postgresql", "ms"},
        {"inject.campaign_ms.openldap", "ms"},
        {"inject.campaign_ms.vsftpd", "ms"},
        {"inject.campaign_ms.squid", "ms"},
        {"inject.campaign_runs", "count"},
        {"inject.vulnerabilities", "count"},
        {"generator.generate_ms", "ms"},
        // Verdict store.
        {"verdict_store.open_ms", "ms"},
        {"verdict_store.lookup_us", "us"},
        {"verdict_store.append_ms", "ms"},
        {"verdict_store.hit_ratio", "ratio"},
        {"verdict_store.appends", "count"},
        {"verdict_store.bytes", "bytes"},
        // Serving.
        {"serve.request_p50_ms", "ms"},
        {"serve.http_parse_us", "us"},
        {"serve.inproc_check_ms", "ms"},
        {"serve.overhead_ms", "ms"},
        {"serve.keepalive_p50_ms", "ms"},
        {"serve.close_p50_ms", "ms"},
        {"serve.repeat_p50_ms", "ms"},
        {"serve.novel_p99_ms", "ms"},
        {"serve.accepted", "count"},
        {"serve.keepalive_reuses", "count"},
        {"serve.shed", "count"},
        {"serve.degraded", "count"},
        {"serve.internal_errors", "count"},
        {"target_pool.loads", "count"},
        {"target_pool.hits", "count"},
        // The tracing itself.
        {"trace.overhead_share", "ratio"},
        {"trace.spans", "count"},
    };
    return table;
  }();
  return *kTable;
}

MetricMap SummarizeLayers(const std::vector<LayerSample>& samples) {
  MetricMap layers;
  for (const auto& [name, unit] : LayerMetricTable()) {
    std::vector<double> values;
    for (const LayerSample& sample : samples) {
      auto it = sample.find(name);
      if (it != sample.end()) {
        values.push_back(it->second);
      }
    }
    layers[name] = Metric{Median(std::move(values)), unit};
  }
  for (const LayerSample& sample : samples) {
    for (const auto& [name, value] : sample) {
      if (layers.count(name) == 0) {
        std::cerr << "spexbench: layer metric '" << name << "' is not in LayerMetricTable\n";
        std::abort();
      }
    }
  }
  return layers;
}

}  // namespace perfbench
