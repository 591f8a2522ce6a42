// Corpus end-to-end tests: every synthesized target parses, lowers,
// analyzes, and passes its baseline; synthesis is deterministic; accuracy
// and vulnerability shapes hold (TEST_P across all seven targets); and
// every campaign run of the corpus matches tests/golden/corpus_campaign.txt.
//
// All of them read one shared sharded corpus run
// (Session::RunCorpusCampaigns): its loaded targets and its summaries.
// The campaign golden is generated from one serial Target::RunCampaign()
// per target, so the test also pins "sharded == serial". When an intended
// change alters a verdict, regenerate it and review the diff:
//   SPEX_REGENERATE_GOLDEN=1 ./corpus_test --gtest_filter='CorpusGoldenTest.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "src/api/session.h"
#include "src/corpus/truth.h"
#include "src/support/hashing.h"

namespace spex {
namespace {

const char* kCampaignGoldenPath = SPEX_SOURCE_DIR "/tests/golden/corpus_campaign.txt";

const std::vector<std::string>& CorpusNames() {
  static const std::vector<std::string>* kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const TargetSpec& spec : EvaluatedTargets()) {
      names->push_back(spec.name);
    }
    return names;
  }();
  return *kNames;
}

// The shared corpus run, in EvaluatedTargets() order (leaked with its
// session: the targets must outlive every test).
const std::vector<CorpusCampaignResult>& CorpusRuns() {
  static Session* kSession = new Session();
  static const std::vector<CorpusCampaignResult>* kRuns = [] {
    auto* runs =
        new std::vector<CorpusCampaignResult>(kSession->RunCorpusCampaigns(CorpusNames()));
    EXPECT_TRUE(kSession->ok()) << kSession->RenderDiagnostics();
    return runs;
  }();
  return *kRuns;
}

const CorpusCampaignResult& CorpusRun(const std::string& name) {
  for (const CorpusCampaignResult& run : CorpusRuns()) {
    if (run.target != nullptr && run.target->name() == name) {
      return run;
    }
  }
  // Every test of the target needs its load; a failed load is fatal.
  std::cerr << "corpus run failed to load " << name << "\n";
  std::abort();
}

class CorpusTargetTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const TargetAnalysis& Analysis(const std::string& name) {
    return CorpusRun(name).target->analysis();
  }
};

TEST_P(CorpusTargetTest, SynthesisIsDeterministic) {
  const TargetSpec& spec = FindTarget(GetParam());
  TargetBundle a = SynthesizeTarget(spec);
  TargetBundle b = SynthesizeTarget(spec);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.annotations, b.annotations);
  EXPECT_EQ(a.template_config, b.template_config);
  EXPECT_EQ(a.manual_text, b.manual_text);
}

TEST_P(CorpusTargetTest, BaselinePassesAllTests) {
  const TargetAnalysis& analysis = Analysis(GetParam());
  InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
  ConfigFile config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
  EXPECT_TRUE(campaign.BaselinePasses(config));
}

TEST_P(CorpusTargetTest, EveryParameterGetsABasicType) {
  const TargetAnalysis& analysis = Analysis(GetParam());
  EXPECT_EQ(analysis.constraints.CountBasicTypes(), analysis.bundle.param_count);
}

TEST_P(CorpusTargetTest, AccuracyAboveNinetyPercentExceptAliasHeavyRanges) {
  const TargetAnalysis& analysis = Analysis(GetParam());
  AccuracyReport report = EvaluateAccuracy(analysis.constraints, analysis.bundle.truth);
  EXPECT_GE(report.basic_type.Ratio(), 0.9) << GetParam();
  EXPECT_GE(report.semantic_type.Ratio(), 0.9) << GetParam();
  EXPECT_GE(report.control_dep.Ratio(), 0.9) << GetParam();
  // Ranges suffer from the planted aliasing; OpenLDAP deliberately dips
  // below 0.9 (the paper's Table 12 shape).
  if (GetParam() == "openldap") {
    EXPECT_LT(report.range.Ratio(), 0.9) << "aliasing should hurt OpenLDAP";
  } else {
    EXPECT_GE(report.range.Ratio(), 0.8) << GetParam();
  }
}

TEST_P(CorpusTargetTest, MappedParamCountMatchesSpec) {
  const TargetAnalysis& analysis = Analysis(GetParam());
  EXPECT_EQ(analysis.constraints.params.size(), analysis.bundle.param_count);
  EXPECT_EQ(FindTarget(GetParam()).TotalParams(), analysis.bundle.param_count);
}

TEST_P(CorpusTargetTest, CampaignFindsVulnerabilitiesDeterministically) {
  // The default snapshot-replay path must be indistinguishable from the
  // ground-truth full replay on every corpus target.
  const CorpusCampaignResult& run = CorpusRun(GetParam());
  const CampaignSummary& first = run.summary;
  CampaignOptions full_replay;
  full_replay.use_parse_snapshot = false;
  CampaignSummary second = run.target->RunCampaign(full_replay);
  EXPECT_EQ(first.TotalVulnerabilities(), second.TotalVulnerabilities());
  EXPECT_GT(first.TotalVulnerabilities(), 0u) << "every system has some vulnerability";
  ASSERT_EQ(first.results.size(), second.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].category, second.results[i].category) << i;
    EXPECT_EQ(first.results[i].detail, second.results[i].detail) << i;
    EXPECT_EQ(first.results[i].logs, second.results[i].logs) << i;
  }
  EXPECT_EQ(first.total_tests_run, second.total_tests_run);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, CorpusTargetTest,
                         ::testing::Values("storage_a", "apache", "mysql", "postgresql",
                                           "openldap", "vsftpd", "squid"),
                         [](const auto& info) { return info.param; });

// --- Campaign golden: every one of the corpus's injection runs, pinned
// across commits.

// Tabs, newlines and non-printable bytes escaped, so every run is one line.
std::string Escape(std::string_view text) {
  std::string out;
  for (unsigned char c : text) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20 || c >= 0x7f) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\x%02x", c);
      out += buffer;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

// One line per run: target, applied settings, category, detail,
// pinpointed, tests run, vulnerability location and an FNV hash of the
// logs (length-prefixed, so a moved boundary changes the hash).
void DumpCampaign(const std::string& target, const CampaignSummary& summary, std::ostream& out) {
  for (const InjectionResult& result : summary.results) {
    out << target << "\t\"" << Escape(result.config.param) << "\"=\""
        << Escape(result.config.value) << '"';
    for (const auto& [key, value] : result.config.extra_settings) {
      out << " \"" << Escape(key) << "\"=\"" << Escape(value) << '"';
    }
    std::string logs;
    for (const std::string& log : result.logs) {
      logs += std::to_string(log.size()) + ":" + log;
    }
    out << '\t' << ReactionCategoryName(result.category) << "\t\"" << Escape(result.detail)
        << "\"\tpinpointed=" << result.pinpointed << "\ttests_run=" << result.tests_run
        << "\tloc=" << result.vulnerability_loc.ToString() << "\tlogs=" << std::hex
        << Fnv1a64(logs) << std::dec << "\n";
  }
}

TEST(CorpusGoldenTest, CampaignRunsMatchGolden) {
  std::ostringstream actual;
  if (std::getenv("SPEX_REGENERATE_GOLDEN") != nullptr) {
    for (const std::string& name : CorpusNames()) {
      Session session;
      Target* target = session.LoadTarget(name);
      ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
      DumpCampaign(name, target->RunCampaign(), actual);
    }
    std::ofstream(kCampaignGoldenPath, std::ios::binary) << actual.str();
    GTEST_SKIP() << "regenerated " << kCampaignGoldenPath;
  }
  for (const CorpusCampaignResult& run : CorpusRuns()) {
    ASSERT_NE(run.target, nullptr);
    DumpCampaign(run.target->name(), run.summary, actual);
  }
  std::ifstream in(kCampaignGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kCampaignGoldenPath;
  std::stringstream expected;
  expected << in.rdbuf();
  // Line-by-line first so a mismatch names the first differing run.
  std::istringstream want(expected.str());
  std::istringstream got(actual.str());
  std::string want_line;
  std::string got_line;
  for (int line = 1; std::getline(want, want_line); ++line) {
    ASSERT_TRUE(std::getline(got, got_line)) << "output ends before golden line " << line;
    ASSERT_EQ(got_line, want_line) << "first difference at golden line " << line;
  }
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(CorpusShapeTest, PaperHeadlineShapesHold) {
  // Cross-target properties the paper's evaluation leans on.
  std::map<std::string, CampaignSummary> summaries;
  for (const std::string& name : CorpusNames()) {
    summaries[name] = CorpusRun(name).summary;
  }
  // 1. Storage-A (commercial, hardened) exposes no crashes or hangs.
  EXPECT_EQ(summaries["storage_a"].CountCategory(ReactionCategory::kCrashHang), 0u);
  // 2. Every open-source system has at least one crash/hang.
  for (const char* name : {"apache", "mysql", "openldap", "vsftpd", "squid"}) {
    EXPECT_GE(summaries[name].CountCategory(ReactionCategory::kCrashHang), 1u) << name;
  }
  // 3. Silent violations dominate overall (Table 5's headline).
  size_t silent = 0, total = 0, crash = 0;
  for (auto& [name, summary] : summaries) {
    silent += summary.CountCategory(ReactionCategory::kSilentViolation);
    crash += summary.CountCategory(ReactionCategory::kCrashHang);
    total += summary.TotalVulnerabilities();
  }
  EXPECT_GT(silent * 2, total) << "silent violations should be the dominant category";
  EXPECT_LT(crash * 4, total) << "crashes are the rare, severe tail";
  // 4. Squid has the most vulnerabilities; strict-table systems have few
  //    relative to their parameter counts.
  EXPECT_GT(summaries["squid"].TotalVulnerabilities(),
            summaries["postgresql"].TotalVulnerabilities());
  EXPECT_GT(summaries["squid"].TotalVulnerabilities(),
            summaries["mysql"].TotalVulnerabilities());
}

}  // namespace
}  // namespace spex
