// campaign-corpus: SPEX-INJ (the paper's Table 5 campaign) over every
// corpus target, each round on a fresh session so every campaign starts
// with a cold snapshot cache.
#include "bench.h"
#include "layers.h"
#include "src/corpus/spec.h"
#include "src/inject/generator.h"

namespace perfbench {
namespace {

// Round 0 warms the process up and is checked but not timed.
constexpr size_t kMinRounds = 4;

// Time from the start of a campaign to each run's verdict.
class RunClock : public spex::CampaignObserver {
 public:
  void OnRunComplete(size_t, const spex::InjectionResult&) override {
    at_.push_back(Clock::now());
  }
  std::vector<Clock::time_point> Take() { return std::move(at_); }

 private:
  std::vector<Clock::time_point> at_;
};

// The corpus targets, in an order the seed picks.
std::vector<std::string> CorpusNames(uint64_t seed) {
  std::vector<std::string> names;
  for (const spex::TargetSpec& spec : spex::EvaluatedTargets()) {
    names.push_back(spec.name);
  }
  Rng rng(seed);
  for (size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.Below(i)]);
  }
  return names;
}

// Every result of every target's campaign, in target then batch order.
void AppendFingerprints(const spex::CampaignSummary& summary, std::vector<std::string>* out) {
  for (const spex::InjectionResult& result : summary.results) {
    out->push_back(ResultFingerprint(result));
  }
  out->push_back("total_tests_run=" + std::to_string(summary.total_tests_run));
}

}  // namespace

Outcome RunCampaignCorpus(const RunOptions& options) {
  Outcome out;
  out.item = "runs";
  const std::vector<std::string> names = CorpusNames(options.seed);
  spex::CampaignOptions campaign_options;
  campaign_options.num_threads = 0;
  std::unique_ptr<spex::ThreadPool> pool;
  if (options.trace) {
    pool = std::make_unique<spex::ThreadPool>(spex::ThreadPool::ResolveThreadCount(0));
  }

  ResetPeakRss();
  std::vector<std::string> first;
  bool replay_traced = false;
  const Clock::time_point begin = Clock::now();
  for (size_t round = 0; round < kMinRounds || MillisSince(begin) < options.seconds * 1000;
       ++round) {
    const bool traced = options.trace && round % 2 == 1;
    Clock::time_point setup_start = Clock::now();
    auto session = std::make_unique<spex::Session>();
    std::vector<spex::Target*> targets;
    size_t expected_runs = 0;
    for (const std::string& name : names) {
      targets.push_back(LoadOrDie(session.get(), name));
      expected_runs += targets.back()->Misconfigurations().size();
    }
    Clock::time_point setup_end = Clock::now();
    const bool warmup = round == 0;
    if (!warmup) {
      out.setup_s.push_back(MillisBetween(setup_start, setup_end) / 1000.0);
    }

    std::vector<std::string> prints;
    std::vector<double> campaign_ms;
    size_t runs = 0, vulnerabilities = 0;
    double round_ms = 0;
    RunClock clock;
    for (spex::Target* target : targets) {
      Clock::time_point start = Clock::now();
      spex::CampaignSummary summary = target->RunCampaign(campaign_options, &clock);
      Clock::time_point end = Clock::now();
      for (Clock::time_point at : clock.Take()) {
        if (!warmup) {
          out.latency_ms.push_back(MillisBetween(start, at));
        }
      }
      campaign_ms.push_back(MillisBetween(start, end));
      round_ms += campaign_ms.back();
      runs += summary.results.size();
      vulnerabilities += summary.TotalVulnerabilities();
      for (const spex::InjectionResult& result : summary.results) {
        out.failed += result.category == spex::ReactionCategory::kDeadlineExceeded ? 1 : 0;
      }
      AppendFingerprints(summary, &prints);
    }
    out.attempted += expected_runs;
    out.failed += expected_runs > runs ? expected_runs - runs : 0;
    if (!warmup) {
      out.items_per_s.push_back(static_cast<double>(runs) / (round_ms / 1000.0));
    }
    if (first.empty()) {
      first = std::move(prints);
    } else {
      out.wrong_verdicts += CountMismatches(first, prints);
    }
    if (options.trace && !warmup) {
      (traced ? out.traced_ms : out.untraced_ms).push_back(round_ms);
    }
    if (traced) {
      Tracer& tracer = out.tracer;
      LayerSample sample;
      int64_t setup_span = tracer.Record("setup", setup_start, setup_end, -1, -1);
      for (size_t t = 0; t < targets.size(); ++t) {
        spex::Target* target = targets[t];
        TraceLoad(names[t], session->apis(), &tracer, setup_span, &sample);
        sample["generator.generate_ms"] +=
            tracer.Time("generator.generate", setup_span, static_cast<int64_t>(t), [&] {
              spex::MisconfigGenerator().Generate(target->InferConstraints());
            });
        sample["inject.campaign_ms." + names[t]] = campaign_ms[t];
      }
      sample["inject.campaign_runs"] = static_cast<double>(runs);
      sample["inject.vulnerabilities"] = static_cast<double>(vulnerabilities);
      // The replay-engine comparison replays the whole corpus twice, so it
      // runs on the first traced round only.
      if (!replay_traced) {
        replay_traced = true;
        ReplayTiming total;
        spex::CampaignCacheStats real;
        for (spex::Target* target : targets) {
          ReplayTiming timing =
              TraceReplay(*target, target->Misconfigurations(), pool.get(), &tracer, -1);
          total.serial_ms += timing.serial_ms;
          total.sharded_ms += timing.sharded_ms;
          AddStats(&total.serial, timing.serial);
          AddStats(&total.sharded, timing.sharded);
          AddStats(&real, target->campaign_cache_stats());
        }
        AddReplayLayers(total, real, &sample);
      }
      out.layer_samples.push_back(std::move(sample));
    }
  }
  out.peak_rss_mib = PeakRssMiB();

  // Gate: every campaign must equal a serial, snapshot-free reference.
  spex::CampaignOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.use_parse_snapshot = false;
  spex::Session reference_session;
  std::vector<std::string> reference;
  for (const std::string& name : names) {
    AppendFingerprints(LoadOrDie(&reference_session, name)->RunCampaign(reference_options),
                       &reference);
  }
  out.wrong_verdicts += CountMismatches(first, reference);
  return out;
}

}  // namespace perfbench
