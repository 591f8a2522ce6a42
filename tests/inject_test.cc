// SPEX-INJ tests: generation rules (Table 2) and reaction classification
// (Table 3) on small live targets.
#include "src/inject/campaign.h"
#include "src/inject/generator.h"

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/api/session.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/strings.h"

namespace spex {
namespace {

// Builds constraints for a param set without running a real target.
ParamConstraints IntParam(const std::string& name, const IrType* type) {
  ParamConstraints param;
  param.param = name;
  BasicTypeConstraint basic;
  basic.type = type;
  param.basic_type = basic;
  return param;
}

TEST(GeneratorTest, BasicTypeRuleCoversTypedErrors) {
  TypeTable types;
  ModuleConstraints constraints;
  constraints.params.push_back(IntParam("threads", types.IntType(32, false)));
  MisconfigGenerator generator;
  auto configs = generator.Generate(constraints);
  ASSERT_GE(configs.size(), 4u);
  std::set<std::string> values;
  for (const auto& config : configs) {
    EXPECT_EQ(config.param, "threads");
    EXPECT_EQ(config.kind, ViolationKind::kBasicType);
    values.insert(config.value);
  }
  EXPECT_TRUE(values.count("not_a_number"));
  EXPECT_TRUE(values.count("9000000000"));  // 32-bit overflow
  EXPECT_TRUE(values.count("9G"));
  EXPECT_TRUE(values.count("100000"));  // large-but-representable
}

TEST(GeneratorTest, NoOverflowValueFor64BitParams) {
  TypeTable types;
  ModuleConstraints constraints;
  constraints.params.push_back(IntParam("big", types.IntType(64, false)));
  MisconfigGenerator generator;
  for (const auto& config : generator.Generate(constraints)) {
    EXPECT_NE(config.value, "9000000000") << "9e9 fits in 64 bits; not a violation";
  }
}

TEST(GeneratorTest, StringParamsGetNoBasicTypeViolations) {
  TypeTable types;
  ModuleConstraints constraints;
  constraints.params.push_back(IntParam("name", types.string_type()));
  MisconfigGenerator generator;
  EXPECT_TRUE(generator.Generate(constraints).empty());
}

TEST(GeneratorTest, RangeRuleHitsBothEdges) {
  TypeTable types;
  ModuleConstraints constraints;
  ParamConstraints param = IntParam("len", types.IntType(32, false));
  RangeConstraint range;
  RangeInterval low{std::nullopt, 3, false};
  RangeInterval mid{4, 255, true};
  RangeInterval high{256, std::nullopt, false};
  range.intervals = {low, mid, high};
  param.range = range;
  constraints.params.push_back(param);

  MisconfigGenerator generator;
  std::set<std::string> range_values;
  for (const auto& config : generator.Generate(constraints)) {
    if (config.kind == ViolationKind::kRange) {
      range_values.insert(config.value);
    }
  }
  EXPECT_TRUE(range_values.count("3"));    // just below
  EXPECT_TRUE(range_values.count("256"));  // just above
  EXPECT_TRUE(range_values.count("1255"));  // far above
}

TEST(GeneratorTest, EnumRuleGeneratesUnlistedAndCaseFlip) {
  TypeTable types;
  ModuleConstraints constraints;
  ParamConstraints param = IntParam("mode", types.string_type());
  param.basic_type.reset();
  RangeConstraint range;
  range.is_enum = true;
  range.enum_strings = {"Barracuda", "Antelope"};
  param.range = range;
  constraints.params.push_back(param);

  MisconfigGenerator generator;
  std::set<std::string> values;
  for (const auto& config : generator.Generate(constraints)) {
    values.insert(config.value);
  }
  EXPECT_TRUE(values.count("no_such_value"));
  EXPECT_TRUE(values.count("barracuda"));  // case-flipped accepted value
}

TEST(GeneratorTest, ControlDepViolationUsesFalsyWordForBooleanMaster) {
  TypeTable types;
  ModuleConstraints constraints;
  ParamConstraints master = IntParam("fsync", types.string_type());
  master.basic_type.reset();
  RangeConstraint bool_range;
  bool_range.is_enum = true;
  bool_range.enum_strings = {"on", "off"};
  master.range = bool_range;
  SemanticTypeConstraint boolean;
  boolean.semantic = SemanticType::kBoolean;
  master.semantic_types.push_back(boolean);
  constraints.params.push_back(master);

  ControlDepConstraint dep;
  dep.master = "fsync";
  dep.dependent = "commit_siblings";
  dep.pred = IrCmpPred::kNe;
  dep.value = 0;
  constraints.control_deps.push_back(dep);

  auto configs = GenerateControlDepViolations(constraints);
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].param, "commit_siblings");
  EXPECT_TRUE(configs[0].expect_ignored);
  ASSERT_EQ(configs[0].extra_settings.size(), 1u);
  EXPECT_EQ(configs[0].extra_settings[0].first, "fsync");
  EXPECT_EQ(configs[0].extra_settings[0].second, "off");
}

TEST(GeneratorTest, ValueRelViolationInvertsTheRelation) {
  ModuleConstraints constraints;
  ValueRelConstraint rel;
  rel.lhs = "min_len";
  rel.rhs = "max_len";
  rel.pred = IrCmpPred::kLt;
  constraints.value_rels.push_back(rel);
  auto configs = GenerateValueRelViolations(constraints);
  ASSERT_EQ(configs.size(), 1u);
  auto lhs = ParseInt64(configs[0].value);
  auto rhs = ParseInt64(configs[0].extra_settings[0].second);
  ASSERT_TRUE(lhs.has_value() && rhs.has_value());
  EXPECT_GE(*lhs, *rhs) << "generated pair must violate min < max";
}

// --- Campaign classification on a live micro-target.

struct MicroTarget {
  DiagnosticEngine diags;
  std::unique_ptr<Module> module;
  SutSpec sut;

  explicit MicroTarget(std::string_view source) {
    auto unit = ParseSource(source, "micro.c", &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    module = LowerToIr(*unit, &diags);
    sut.parse_function = "handle_config_line";
    sut.init_function = "server_init";
  }
};

constexpr const char* kMicroSource = R"(
  int threads = 4;
  int slots[8];
  int ok_feature = 1;
  int handle_config_line(char *key, char *value) {
    if (!strcasecmp(key, "threads")) { threads = atoi(value); return 0; }
    log_warn("unknown directive: %s", key);
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < threads; i++) { slots[i] = 1; }
    return 0;
  }
  int test_feature() { return ok_feature; }
)";

Misconfiguration Inject(const std::string& value, std::optional<int64_t> intended) {
  Misconfiguration config;
  config.param = "threads";
  config.value = value;
  config.kind = ViolationKind::kBasicType;
  config.rule = "test";
  config.intended_numeric = intended;
  return config;
}

TEST(CampaignTest, BaselinePassesAndCrashClassified) {
  MicroTarget target(kMicroSource);
  target.sut.tests.push_back({"feature", "test_feature", 1, 1});
  target.sut.param_storage["threads"] = "threads";
  InjectionCampaign campaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  ConfigFile config = ConfigFile::Parse("threads = 4\n", ConfigDialect::kKeyEqualsValue);
  EXPECT_TRUE(campaign.BaselinePasses(config));

  InjectionResult crash = campaign.RunOne(config, Inject("100000", 100000));
  EXPECT_EQ(crash.category, ReactionCategory::kCrashHang);

  InjectionResult silent = campaign.RunOne(config, Inject("not_a_number", std::nullopt));
  EXPECT_EQ(silent.category, ReactionCategory::kSilentViolation);

  InjectionResult fine = campaign.RunOne(config, Inject("6", 6));
  EXPECT_EQ(fine.category, ReactionCategory::kNoIssue);
}

TEST(CampaignTest, PinpointingTurnsRejectionIntoGoodReaction) {
  MicroTarget target(R"(
    int threads = 4;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) {
        int v;
        if (parse_int_strict(value, &v) < 0) {
          log_error("invalid value '%s' for parameter threads", value);
          return -1;
        }
        threads = v;
        return 0;
      }
      return 0;
    }
    int server_init() { return 0; }
  )");
  target.sut.param_storage["threads"] = "threads";
  InjectionCampaign campaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  ConfigFile config = ConfigFile::Parse("threads = 4\n", ConfigDialect::kKeyEqualsValue);
  InjectionResult result = campaign.RunOne(config, Inject("not_a_number", std::nullopt));
  EXPECT_EQ(result.category, ReactionCategory::kGoodReaction);
  EXPECT_TRUE(result.pinpointed);
}

TEST(CampaignTest, RejectionWithoutMessageIsEarlyTermination) {
  MicroTarget target(R"(
    int threads = 4;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) {
        int v;
        if (parse_int_strict(value, &v) < 0) { return -1; }
        threads = v;
      }
      return 0;
    }
    int server_init() { return 0; }
  )");
  InjectionCampaign campaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  ConfigFile config = ConfigFile::Parse("threads = 4\n", ConfigDialect::kKeyEqualsValue);
  InjectionResult result = campaign.RunOne(config, Inject("garbage!", std::nullopt));
  EXPECT_EQ(result.category, ReactionCategory::kEarlyTermination);
}

TEST(CampaignTest, StopAtFirstFailureRunsFewerTests) {
  MicroTarget target(R"(
    int broken = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "broken")) { broken = atoi(value); }
      return 0;
    }
    int server_init() { return 0; }
    int test_a() { return broken == 0; }
    int test_b() { return 1; }
    int test_c() { return 1; }
  )");
  target.sut.tests.push_back({"a", "test_a", 1, 1});
  target.sut.tests.push_back({"b", "test_b", 1, 2});
  target.sut.tests.push_back({"c", "test_c", 1, 3});
  ConfigFile config = ConfigFile::Parse("broken = 0\n", ConfigDialect::kKeyEqualsValue);
  Misconfiguration inject;
  inject.param = "broken";
  inject.value = "1";
  inject.kind = ViolationKind::kBasicType;
  inject.intended_numeric = 1;

  CampaignOptions stop;
  stop.stop_at_first_failure = true;
  InjectionCampaign fast(*target.module, target.sut, OsSimulator::StandardEnvironment(), stop);
  CampaignOptions no_stop;
  no_stop.stop_at_first_failure = false;
  InjectionCampaign slow(*target.module, target.sut, OsSimulator::StandardEnvironment(),
                         no_stop);
  EXPECT_LT(fast.RunOne(config, inject).tests_run, slow.RunOne(config, inject).tests_run);
}

// Bit-identical comparison of two campaign summaries — the contract both
// the parallel fan-out and the snapshot-replay path must uphold.
void ExpectSameSummaries(const CampaignSummary& expected, const CampaignSummary& actual,
                         const char* label) {
  ASSERT_EQ(actual.results.size(), expected.results.size()) << label;
  for (size_t i = 0; i < expected.results.size(); ++i) {
    const InjectionResult& a = expected.results[i];
    const InjectionResult& b = actual.results[i];
    ASSERT_EQ(a.config.param, b.config.param) << label << ": order diverged at " << i;
    ASSERT_EQ(a.config.value, b.config.value) << label << ": order diverged at " << i;
    EXPECT_EQ(a.category, b.category) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.detail, b.detail) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.logs, b.logs) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.pinpointed, b.pinpointed) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.tests_run, b.tests_run) << label << ": " << a.config.Describe();
  }
  EXPECT_EQ(actual.total_tests_run, expected.total_tests_run) << label;
}

CampaignSummary Summarize(std::vector<InjectionResult> results) {
  CampaignSummary summary;
  summary.results = std::move(results);
  for (const InjectionResult& result : summary.results) {
    summary.total_tests_run += result.tests_run;
  }
  return summary;
}

void ExpectSameCacheStats(const CampaignCacheStats& expected, const CampaignCacheStats& actual,
                          const char* label) {
  EXPECT_EQ(actual.snapshots_built, expected.snapshots_built) << label;
  EXPECT_EQ(actual.delta_replays, expected.delta_replays) << label;
  EXPECT_EQ(actual.full_replays, expected.full_replays) << label;
  EXPECT_EQ(actual.verifications, expected.verifications) << label;
  EXPECT_EQ(actual.store_hits, expected.store_hits) << label;
  EXPECT_EQ(actual.store_misses, expected.store_misses) << label;
  EXPECT_EQ(actual.store_appends, expected.store_appends) << label;
}

// Whole key-sets per worker: a 4-worker RunAll must reproduce the serial
// run result for result *and* counter for counter — no worker may find a
// snapshot still building or verify a key-set another worker is verifying.
TEST(CampaignParallelTest, ParallelRunAllMatchesSerialOnEveryCorpusTarget) {
  Session session;
  ThreadPool pool(4);
  for (const char* name :
       {"storage_a", "apache", "mysql", "postgresql", "openldap", "vsftpd", "squid"}) {
    SCOPED_TRACE(name);
    Target* target = session.LoadTarget(name);
    ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
    const TargetAnalysis& analysis = target->analysis();

    MisconfigGenerator generator;
    std::vector<Misconfiguration> configs = generator.Generate(analysis.constraints);
    ASSERT_GT(configs.size(), 10u);
    ConfigFile template_config =
        ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);

    InjectionCampaign serial(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
    CampaignSummary serial_summary = serial.RunAll(template_config, configs);

    InjectionCampaign parallel(*analysis.module, analysis.bundle.sut,
                               OsSimulator::StandardEnvironment());
    CampaignSummary parallel_summary =
        parallel.RunAll(template_config, configs, nullptr, &pool, 4);

    ExpectSameSummaries(serial_summary, parallel_summary, name);
    EXPECT_GT(serial.cache_stats().delta_replays, 0u);
    ExpectSameCacheStats(serial.cache_stats(), parallel.cache_stats(), name);
  }
}

// --- Snapshot-replay determinism and fallbacks.

TEST(CampaignSnapshotTest, SnapshotReplayBitIdenticalToFullReplaySquid) {
  Session session;
  Target* target = session.LoadTarget("squid");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  const TargetAnalysis& analysis = target->analysis();

  MisconfigGenerator generator;
  std::vector<Misconfiguration> configs = generator.Generate(analysis.constraints);
  ASSERT_GT(configs.size(), 10u);
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);

  ThreadPool pool(4);
  auto run = [&](size_t threads, bool snapshot) {
    CampaignOptions options;
    options.use_parse_snapshot = snapshot;
    InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                               OsSimulator::StandardEnvironment(), options);
    return campaign.RunAll(template_config, configs, nullptr, &pool, threads);
  };

  // Ground truth: serial, full replay for every run.
  CampaignSummary full = run(1, false);
  ExpectSameSummaries(full, run(1, true), "serial snapshot");
  ExpectSameSummaries(full, run(4, false), "4-worker full");
  ExpectSameSummaries(full, run(4, true), "4-worker snapshot");
}

// One template policy for both entry points: the campaign keeps the first
// template's snapshots, a call with another template runs ground truth
// without touching the cache, and the first template stays warm.
TEST(CampaignSnapshotTest, ForeignTemplateRunsGroundTruthAndKeepsTheCache) {
  Session session;
  Target* target = session.LoadTarget("vsftpd");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  const TargetAnalysis& analysis = target->analysis();
  std::vector<Misconfiguration> configs = MisconfigGenerator().Generate(analysis.constraints);
  ASSERT_GT(configs.size(), 10u);
  ConfigFile template_a =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
  ConfigFile template_b = template_a;
  for (const ConfigEntry& entry : template_a.entries()) {
    if (entry.kind == ConfigEntry::Kind::kSetting) {
      template_b.Set(entry.key, entry.value + "0");
      break;
    }
  }
  ASSERT_NE(template_a.Serialize(), template_b.Serialize());

  CampaignOptions ground_truth;
  ground_truth.use_parse_snapshot = false;
  InjectionCampaign truth(*analysis.module, analysis.bundle.sut,
                          OsSimulator::StandardEnvironment(), ground_truth);
  CampaignSummary truth_b = truth.RunAll(template_b, configs);

  InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
  CampaignSummary first_a = campaign.RunAll(template_a, configs);
  std::vector<InjectionResult> first_external = campaign.ReplayExternal(template_a, configs);
  const CampaignCacheStats warm = campaign.cache_stats();
  ASSERT_GT(warm.snapshots_built, 0u);

  ExpectSameSummaries(truth_b, campaign.RunAll(template_b, configs), "template B RunAll");
  ExpectSameSummaries(truth_b, Summarize(campaign.ReplayExternal(template_b, configs)),
                      "template B ReplayExternal");
  EXPECT_EQ(campaign.cache_stats().snapshots_built, warm.snapshots_built);
  EXPECT_EQ(campaign.cache_stats().delta_replays, warm.delta_replays);

  ExpectSameSummaries(first_a, campaign.RunAll(template_a, configs), "template A again");
  ExpectSameSummaries(Summarize(first_external),
                      Summarize(campaign.ReplayExternal(template_a, configs)),
                      "template A ReplayExternal again");
  const CampaignCacheStats after = campaign.cache_stats();
  EXPECT_EQ(after.snapshots_built, warm.snapshots_built) << "template A's snapshots were lost";
  EXPECT_GT(after.delta_replays, warm.delta_replays);
}

TEST(CampaignSnapshotTest, RejectedDeltaParseFallsBackToFullReplay) {
  // The injected value is rejected by the parse handler, which in a full
  // replay stops mid-template. The snapshot path must detect the rejected
  // delta parse and re-run via full replay — classification, logs and
  // detail must come out identical.
  MicroTarget target(R"(
    int threads = 4;
    int workers = 2;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) {
        int v;
        if (parse_int_strict(value, &v) < 0) {
          log_error("invalid value '%s' for parameter threads", value);
          return -1;
        }
        threads = v;
        return 0;
      }
      if (!strcasecmp(key, "workers")) { workers = atoi(value); return 0; }
      return 0;
    }
    int server_init() { return 0; }
  )");
  target.sut.param_storage["threads"] = "threads";
  ConfigFile config =
      ConfigFile::Parse("threads = 4\nworkers = 2\n", ConfigDialect::kKeyEqualsValue);
  std::vector<Misconfiguration> configs = {Inject("not_a_number", std::nullopt),
                                           Inject("9G", std::nullopt), Inject("6", 6)};

  CampaignOptions snapshot_on;
  snapshot_on.use_parse_snapshot = true;
  InjectionCampaign with_snapshot(*target.module, target.sut,
                                  OsSimulator::StandardEnvironment(), snapshot_on);
  CampaignOptions snapshot_off;
  snapshot_off.use_parse_snapshot = false;
  InjectionCampaign without_snapshot(*target.module, target.sut,
                                     OsSimulator::StandardEnvironment(), snapshot_off);

  CampaignSummary truth = without_snapshot.RunAll(config, configs);
  CampaignSummary replayed = with_snapshot.RunAll(config, configs);
  ExpectSameSummaries(truth, replayed, "rejected delta");
  // The rejection itself is pinpointed by the handler's log_error.
  EXPECT_EQ(replayed.results[0].category, ReactionCategory::kGoodReaction);
  EXPECT_TRUE(replayed.results[0].pinpointed);
  EXPECT_EQ(replayed.results[2].category, ReactionCategory::kNoIssue);
}

TEST(CampaignSnapshotTest, OrderSensitiveParseHandlerFallsBackToFullReplay) {
  // handle_config_line for "b" reads state written by "a", so replaying the
  // delta ("a") after the rest of the template ("b") computes a different
  // b_val than the in-order full replay. The first-use verification must
  // catch the divergence and pin this key-set to the full-replay path.
  MicroTarget target(R"(
    int a_val = 1;
    int b_val = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "a")) { a_val = atoi(value); return 0; }
      if (!strcasecmp(key, "b")) { b_val = a_val + atoi(value); return 0; }
      return 0;
    }
    int server_init() { return 0; }
    int test_b() { return b_val; }
  )");
  target.sut.tests.push_back({"b", "test_b", 7, 1});
  ConfigFile config = ConfigFile::Parse("a = 5\nb = 2\n", ConfigDialect::kKeyEqualsValue);
  {
    InjectionCampaign baseline(*target.module, target.sut, OsSimulator::StandardEnvironment());
    ASSERT_TRUE(baseline.BaselinePasses(config));
  }

  std::vector<Misconfiguration> configs;
  for (const char* value : {"9", "12"}) {
    Misconfiguration inject;
    inject.param = "a";
    inject.value = value;
    inject.kind = ViolationKind::kBasicType;
    inject.rule = "test";
    inject.intended_numeric = ParseInt64(value);
    configs.push_back(inject);
  }

  CampaignOptions snapshot_on;
  snapshot_on.use_parse_snapshot = true;
  InjectionCampaign with_snapshot(*target.module, target.sut,
                                  OsSimulator::StandardEnvironment(), snapshot_on);
  CampaignOptions snapshot_off;
  snapshot_off.use_parse_snapshot = false;
  InjectionCampaign without_snapshot(*target.module, target.sut,
                                     OsSimulator::StandardEnvironment(), snapshot_off);

  CampaignSummary truth = without_snapshot.RunAll(config, configs);
  CampaignSummary replayed = with_snapshot.RunAll(config, configs);
  ExpectSameSummaries(truth, replayed, "order-sensitive keyset");
  // In-order ground truth: a=9 then b=2 makes test_b see 11, a functional
  // failure — if the snapshot path leaked its reordered b_val the detail
  // string would expose it.
  EXPECT_EQ(replayed.results[0].category, ReactionCategory::kFunctionalFailure);
  EXPECT_NE(replayed.results[0].detail.find("got 11"), std::string::npos)
      << replayed.results[0].detail;
}

TEST(CampaignSnapshotTest, ValueDependentOrderSensitivityFallsBack) {
  // The conflict only shows for some injected values: with a=9 the
  // reordered replay happens to agree with ground truth, with a=20 it
  // would not. A first-sample verification alone would bless the key-set
  // on a=9; the per-run hazard check must catch the read-after-delta-write
  // conflict for every value (b's parse reads a_val, which the delta
  // writes), independent of which config runs first.
  MicroTarget target(R"(
    int a_val = 5;
    int b_val = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "a")) { a_val = atoi(value); return 0; }
      if (!strcasecmp(key, "b")) {
        if (a_val > 10) { b_val = 1; } else { b_val = 2; }
        return 0;
      }
      return 0;
    }
    int server_init() { return 0; }
    int test_b() { return b_val; }
  )");
  target.sut.tests.push_back({"b", "test_b", 2, 1});
  ConfigFile config = ConfigFile::Parse("a = 5\nb = 2\n", ConfigDialect::kKeyEqualsValue);

  // a=9 first (reordered replay would agree), then a=20 (it would not).
  std::vector<Misconfiguration> configs;
  for (const char* value : {"9", "20"}) {
    Misconfiguration inject;
    inject.param = "a";
    inject.value = value;
    inject.kind = ViolationKind::kBasicType;
    inject.rule = "test";
    inject.intended_numeric = ParseInt64(value);
    configs.push_back(inject);
  }

  CampaignOptions snapshot_off;
  snapshot_off.use_parse_snapshot = false;
  InjectionCampaign without_snapshot(*target.module, target.sut,
                                     OsSimulator::StandardEnvironment(), snapshot_off);
  CampaignSummary truth = without_snapshot.RunAll(config, configs);
  InjectionCampaign with_snapshot(*target.module, target.sut,
                                  OsSimulator::StandardEnvironment());
  ExpectSameSummaries(truth, with_snapshot.RunAll(config, configs), "value-dependent order");
  // Ground truth for a=20: b parses after a, sees a_val=20 > 10, so
  // test_b fails with b_val=1.
  EXPECT_EQ(truth.results[0].category, ReactionCategory::kNoIssue);
  EXPECT_EQ(truth.results[1].category, ReactionCategory::kFunctionalFailure);
  EXPECT_NE(truth.results[1].detail.find("got 1,"), std::string::npos)
      << truth.results[1].detail;
}

}  // namespace
}  // namespace spex
