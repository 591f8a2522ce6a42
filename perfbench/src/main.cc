// spexbench: the end-to-end benchmark's binary.
//
//   spexbench --workload fleet-cold --seed 1 --seconds 10 --trace 0 --work-dir DIR
//   spexbench --dump-inputs --seed 1
//
// Prints one informational line per workload ("# ...") and, last, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs the per-layer metrics.
// Exits 1 when an output differs from its reference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage() {
  std::cerr << "usage: spexbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n       spexbench --dump-inputs --seed N\n"
               "workloads: fleet-cold fleet-recheck serve-mixed campaign-corpus\n";
  std::exit(2);
}

std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", std::isfinite(value) ? value : 0.0);
  return text;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string json = "{";
  for (const auto& [name, metric] : metrics) {
    if (json.size() > 1) {
      json += ", ";
    }
    json += "\"" + name + "\": {\"value\": " + Number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  return json + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.work_dir = ".bench_build/work";
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value() != "0";
    } else if (flag == "--work-dir") {
      options.work_dir = value();
    } else if (flag == "--dump-inputs") {
      dump = true;
    } else {
      Usage();
    }
  }
  if (dump) {
    DumpInputs(options.seed);
    return 0;
  }
  std::filesystem::create_directories(options.work_dir);

  Outcome out;
  if (options.workload == "fleet-cold") {
    out = RunFleetCold(options);
  } else if (options.workload == "fleet-recheck") {
    out = RunFleetRecheck(options);
  } else if (options.workload == "serve-mixed") {
    out = RunServeMixed(options);
  } else if (options.workload == "campaign-corpus") {
    out = RunCampaignCorpus(options);
  } else {
    Usage();
  }

  const double attempted = static_cast<double>(std::max<uint64_t>(out.attempted, 1));
  const double p50 = Quantile(out.latency_ms, 0.5);
  const double p99 = Quantile(out.latency_ms, 0.99);
  std::printf(
      "# %s seed=%llu: %s_per_s=%s (median of %zu samples) latency_p50_ms=%s "
      "latency_p99_ms=%s (%zu verdicts) setup_s=%s (%zu set-ups) peak_rss_mb=%s "
      "failed_share=%s degraded_share=%s wrong_verdicts=%llu\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed), out.item.c_str(),
      Number(Median(out.items_per_s)).c_str(), out.items_per_s.size(), Number(p50).c_str(),
      Number(p99).c_str(), out.latency_ms.size(), Number(Median(out.setup_s)).c_str(),
      out.setup_s.size(), Number(out.peak_rss_mib).c_str(),
      Number(static_cast<double>(out.failed) / attempted).c_str(),
      Number(static_cast<double>(out.degraded) / attempted).c_str(),
      static_cast<unsigned long long>(out.wrong_verdicts));

  MetricMap metrics;
  if (options.trace) {
    metrics = SummarizeLayers(out.layer_samples);
    const double untraced = Median(out.untraced_ms);
    metrics["trace.overhead_share"].value =
        untraced > 0 ? Median(out.traced_ms) / untraced - 1.0 : 0;
    metrics["trace.spans"].value = static_cast<double>(out.tracer.size());
    const std::string trace_path = options.work_dir + "/trace-" + options.workload + "-seed" +
                                   std::to_string(options.seed) + ".jsonl";
    if (!out.tracer.Write(trace_path)) {
      std::cerr << "spexbench: cannot write " << trace_path << "\n";
      return 1;
    }
    std::printf(
        "# %s traced: %zu spans in %s; primary call median %s ms traced vs %s ms untraced; "
        "shard_speedup = %s ms serial / %s ms sharded; serve overhead = %s ms request p50 - %s "
        "ms in-process check\n",
        options.workload.c_str(), out.tracer.size(), trace_path.c_str(),
        Number(Median(out.traced_ms)).c_str(), Number(untraced).c_str(),
        Number(metrics["inject.replay_ms_serial"].value).c_str(),
        Number(metrics["inject.replay_ms_sharded"].value).c_str(),
        Number(metrics["serve.request_p50_ms"].value).c_str(),
        Number(metrics["serve.inproc_check_ms"].value).c_str());
  } else {
    metrics["setup_s"] = Metric{Median(out.setup_s), "s"};
    metrics["items_per_s"] = Metric{Median(out.items_per_s), "1/s"};
    metrics["latency_p50_ms"] = Metric{p50, "ms"};
    metrics["peak_rss_mb"] = Metric{out.peak_rss_mib, "MiB"};
  }
  const bool correct = out.wrong_verdicts == 0;
  if (!correct) {
    std::cerr << "spexbench: " << options.workload << ": " << out.wrong_verdicts
              << " outputs differ from their reference\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
