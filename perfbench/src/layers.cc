#include "layers.h"

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <unordered_set>

#include "src/api/dynamic_check.h"
#include "src/core/engine.h"
#include "src/corpus/synthesizer.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/mapping/annotations.h"
#include "src/serve/http.h"

namespace perfbench {
namespace {

// Length-prefixed, so no field content can fake a separator.
void Field(std::string* out, std::string_view value) {
  *out += std::to_string(value.size());
  *out += ':';
  *out += value;
}

void Field(std::string* out, int64_t value) { Field(out, std::to_string(value)); }

void LocField(std::string* out, const spex::SourceLoc& loc) {
  Field(out, loc.file);
  Field(out, static_cast<int64_t>(loc.line));
  Field(out, static_cast<int64_t>(loc.column));
}

}  // namespace

spex::Target* LoadOrDie(spex::Session* session, const std::string& name) {
  spex::Target* target = session->LoadTarget(name);
  if (target == nullptr) {
    std::cerr << "spexbench: loading " << name << " failed\n" << session->RenderDiagnostics();
    std::exit(1);
  }
  return target;
}

std::string ReportFingerprint(const spex::ConfigReport& report) {
  std::string out;
  Field(&out, static_cast<int64_t>(report.index));
  Field(&out, report.name);
  Field(&out, spex::StatusCodeName(report.status.code()));
  Field(&out, report.status.message());
  Field(&out, static_cast<int64_t>(report.suspects));
  Field(&out, static_cast<int64_t>(report.shared_replays));
  for (const spex::Violation& violation : report.violations) {
    Field(&out, static_cast<int64_t>(violation.category));
    Field(&out, violation.param);
    Field(&out, violation.value);
    Field(&out, violation.file);
    Field(&out, static_cast<int64_t>(violation.line));
    Field(&out, violation.message);
    LocField(&out, violation.constraint_loc);
    Field(&out, violation.override_note);
    Field(&out, violation.reaction.has_value() ? static_cast<int64_t>(*violation.reaction) : -1);
    Field(&out, violation.reaction_detail);
    for (const std::string& log : violation.evidence_logs) {
      Field(&out, log);
    }
    Field(&out, violation.prediction);
  }
  return out;
}

std::string ResultFingerprint(const spex::InjectionResult& result) {
  std::string out;
  const spex::Misconfiguration& config = result.config;
  Field(&out, config.param);
  Field(&out, config.value);
  Field(&out, static_cast<int64_t>(config.kind));
  Field(&out, config.rule);
  for (const auto& [key, value] : config.extra_settings) {
    Field(&out, key);
    Field(&out, value);
  }
  Field(&out, config.intended_numeric.has_value() ? "n" + std::to_string(*config.intended_numeric)
                                                  : std::string("-"));
  Field(&out, config.expect_ignored ? 1 : 0);
  LocField(&out, config.constraint_loc);
  Field(&out, static_cast<int64_t>(result.category));
  Field(&out, result.detail);
  for (const std::string& log : result.logs) {
    Field(&out, log);
  }
  Field(&out, result.pinpointed ? 1 : 0);
  Field(&out, result.tests_run);
  LocField(&out, result.vulnerability_loc);
  return out;
}

std::string ViolationLine(const spex::Violation& violation) {
  std::string line = "{\"type\":\"violation\"";
  line += ",\"file\":\"" + spex::JsonEscape(violation.file) + "\"";
  line += ",\"line\":" + std::to_string(violation.line);
  line += ",\"category\":\"" + std::string(spex::ViolationCategoryName(violation.category)) + "\"";
  line += ",\"param\":\"" + spex::JsonEscape(violation.param) + "\"";
  line += ",\"value\":\"" + spex::JsonEscape(violation.value) + "\"";
  line += ",\"message\":\"" + spex::JsonEscape(violation.message) + "\"";
  if (!violation.override_note.empty()) {
    line += ",\"note\":\"" + spex::JsonEscape(violation.override_note) + "\"";
  }
  if (violation.reaction.has_value()) {
    line += ",\"reaction\":\"" +
            std::string(spex::ReactionCategoryName(*violation.reaction)) + "\"";
    line += ",\"prediction\":\"" + spex::JsonEscape(violation.prediction) + "\"";
  }
  line += "}";
  return line;
}

size_t CountMismatches(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  size_t mismatches = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    mismatches += a[i] != b[i] ? 1 : 0;
  }
  return mismatches;
}

void TraceLoad(const std::string& name, const spex::ApiRegistry& apis, Tracer* tracer,
               int64_t parent, LayerSample* sample) {
  spex::DiagnosticEngine diags;
  spex::TargetBundle bundle;
  (*sample)["corpus.synthesize_ms"] += tracer->Time("corpus.synthesize", parent, -1, [&] {
    bundle = spex::SynthesizeTarget(spex::FindTarget(name));
  });
  std::unique_ptr<spex::TranslationUnit> unit;
  (*sample)["lang.parse_ms"] += tracer->Time("lang.parse", parent, -1, [&] {
    unit = spex::ParseSource(bundle.source, name + ".c", &diags);
  });
  std::unique_ptr<spex::Module> module;
  (*sample)["ir.lower_ms"] +=
      tracer->Time("ir.lower", parent, -1, [&] { module = spex::LowerToIr(*unit, &diags); });
  for (const auto& function : module->functions()) {
    (*sample)["ir.blocks"] += static_cast<double>(function->blocks().size());
  }
  spex::AnnotationFile annotations;
  (*sample)["mapping.annotate_ms"] += tracer->Time("mapping.annotate", parent, -1, [&] {
    annotations = spex::ParseAnnotations(bundle.annotations, &diags);
  });
  spex::ModuleConstraints constraints;
  (*sample)["core.infer_ms"] += tracer->Time("core.infer", parent, -1, [&] {
    spex::SpexEngine engine(*module, apis);
    constraints = engine.Run(annotations, &diags);
  });
  (*sample)["core.constraints"] += static_cast<double>(constraints.TotalConstraints());
}

CheckPath RunCheckPath(const spex::Target& target, std::span<const spex::ConfigInput> configs,
                       spex::ThreadPool* pool, Tracer* tracer, int64_t parent,
                       LayerSample* sample) {
  const spex::ModuleConstraints& constraints = target.InferConstraints();
  const spex::ConfigFile template_config =
      spex::ConfigFile::Parse(target.analysis().bundle.template_config, target.dialect());
  const size_t count = configs.size();
  std::vector<spex::ConfigFile> parsed(count);
  std::vector<std::vector<spex::Violation>> violations(count);
  std::vector<std::vector<spex::Misconfiguration>> suspects(count);

  CheckPath path;
  auto phase = [&](const char* name, const std::function<void(size_t)>& step) {
    Clock::time_point start = Clock::now();
    auto range = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        step(i);
      }
    };
    if (pool != nullptr) {
      pool->ShardRange(count, pool->size(), range);
    } else {
      range(0, count);
    }
    Clock::time_point end = Clock::now();
    if (tracer != nullptr) {
      tracer->Record(name, start, end, parent);
    }
    path.wall_ms += MillisBetween(start, end);
    return MillisBetween(start, end);
  };
  double parse_ms = phase("confgen.parse", [&](size_t i) {
    parsed[i] = spex::ConfigFile::Parse(configs[i].text, target.dialect());
  });
  double static_ms = phase("config_checker.static", [&](size_t i) {
    violations[i] = spex::CheckConfigFile(constraints, parsed[i], configs[i].name);
  });
  double suspects_ms = phase("dynamic_check.suspects", [&](size_t i) {
    suspects[i] =
        spex::BuildDynamicSuspects(constraints, template_config, parsed[i], violations[i]);
  });

  std::unordered_set<std::string> seen;
  size_t settings = 0, violation_count = 0, suspect_count = 0;
  for (size_t i = 0; i < count; ++i) {
    settings += parsed[i].SettingCount();
    violation_count += violations[i].size();
    suspect_count += suspects[i].size();
    for (const spex::Misconfiguration& suspect : suspects[i]) {
      std::string key = spex::SuspectExecutionKey(suspect);
      if (seen.insert(key).second) {
        path.unique.push_back(suspect);
        path.unique_keys.push_back(std::move(key));
      }
    }
  }
  if (sample != nullptr) {
    (*sample)["confgen.parse_ms"] += parse_ms;
    (*sample)["confgen.settings"] += static_cast<double>(settings);
    (*sample)["config_checker.static_ms"] += static_ms;
    (*sample)["config_checker.violations"] += static_cast<double>(violation_count);
    (*sample)["dynamic_check.suspects_ms"] += suspects_ms;
    (*sample)["dynamic_check.suspects"] += static_cast<double>(suspect_count);
  }
  return path;
}

ReplayTiming TraceReplay(const spex::Target& target,
                         const std::vector<spex::Misconfiguration>& suspects,
                         spex::ThreadPool* pool, Tracer* tracer, int64_t parent) {
  const spex::TargetAnalysis& analysis = target.analysis();
  const spex::ConfigFile template_config =
      spex::ConfigFile::Parse(analysis.bundle.template_config, target.dialect());
  ReplayTiming timing;
  {
    spex::InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                                     spex::OsSimulator::StandardEnvironment());
    // A comparison run, not part of the parent's work: a root span.
    timing.serial_ms = tracer->Time("inject.replay_serial", -1, -1, [&] {
      timing.results = campaign.ReplayExternal(template_config, suspects);
    });
    timing.serial = campaign.cache_stats();
  }
  {
    spex::InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                                     spex::OsSimulator::StandardEnvironment());
    timing.sharded_ms = tracer->Time("inject.replay_sharded", parent, -1, [&] {
      campaign.ReplayExternal(template_config, suspects, true, pool, pool->size());
    });
    timing.sharded = campaign.cache_stats();
  }
  return timing;
}

void AddStats(spex::CampaignCacheStats* total, const spex::CampaignCacheStats& add) {
  total->snapshots_built += add.snapshots_built;
  total->delta_replays += add.delta_replays;
  total->full_replays += add.full_replays;
  total->verifications += add.verifications;
  total->store_hits += add.store_hits;
  total->store_misses += add.store_misses;
  total->store_appends += add.store_appends;
}

void AddReplayLayers(const ReplayTiming& timing, const spex::CampaignCacheStats& real,
                     LayerSample* sample) {
  LayerSample& s = *sample;
  s["inject.replay_ms_serial"] = timing.serial_ms;
  s["inject.replay_ms_sharded"] = timing.sharded_ms;
  s["inject.shard_speedup"] = timing.sharded_ms > 0 ? timing.serial_ms / timing.sharded_ms : 0;
  s["inject.snapshots_built"] = static_cast<double>(real.snapshots_built);
  s["inject.delta_replays"] = static_cast<double>(real.delta_replays);
  s["inject.full_replays"] = static_cast<double>(real.full_replays);
  s["inject.verifications"] = static_cast<double>(real.verifications);
  const double replays = static_cast<double>(real.delta_replays + real.full_replays);
  s["inject.delta_share"] = replays > 0 ? static_cast<double>(real.delta_replays) / replays : 0;
  s["inject.redundant_full_replays"] =
      static_cast<double>(real.full_replays) - static_cast<double>(timing.serial.full_replays);
}

void RemoveStore(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".lock", ignored);
}

}  // namespace perfbench
