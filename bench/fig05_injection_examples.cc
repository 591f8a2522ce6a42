// Figure 5: misconfiguration generation + the exposed bad reactions, one
// demonstration per constraint kind, run live through SPEX-INJ.
#include <iostream>
#include <map>

#include "bench/bench_util.h"
#include "src/support/strings.h"

using namespace spex;

namespace {

const TargetAnalysis& Analysis(const char* name) {
  static std::map<std::string, Target*>* kCache = new std::map<std::string, Target*>();
  auto it = kCache->find(name);
  if (it == kCache->end()) {
    Target* target = BenchSession().LoadTarget(name);
    if (target == nullptr) {
      std::cerr << BenchSession().RenderDiagnostics();
      std::abort();
    }
    it = kCache->emplace(name, target).first;
  }
  return it->second->analysis();
}

void Demo(const char* label, const char* target, const char* param, const char* value,
          ViolationKind kind, const char* paper_reaction,
          std::vector<std::pair<std::string, std::string>> extra = {}) {
  const TargetAnalysis& analysis = Analysis(target);
  Misconfiguration config;
  config.param = param;
  config.value = value;
  config.kind = kind;
  config.rule = "figure-5 demonstration";
  config.extra_settings = std::move(extra);
  auto intended = ParseInt64(value);
  if (intended.has_value()) {
    config.intended_numeric = intended;
  }
  if (kind == ViolationKind::kControlDep) {
    config.expect_ignored = true;
  }

  InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
  InjectionResult result = campaign.RunOne(template_config, config);

  std::cout << "--- " << label << "\n";
  std::cout << "    inject: " << config.Describe() << "\n";
  std::cout << "    paper reaction:    " << paper_reaction << "\n";
  std::cout << "    measured reaction: " << ReactionCategoryName(result.category)
            << (result.detail.empty() ? "" : " — " + result.detail) << "\n";
  for (const std::string& log : result.logs) {
    std::cout << "    log: " << log << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "SPEX reproduction bench — Figure 5: injection examples\n\n";

  Demo("(a) basic-type violation (log.filesize = 9,000,000,000)", "storage_a",
       "cifs.compat.level_0", "9000000000", ViolationKind::kBasicType,
       "silently changes the setting to the overflowed number");
  Demo("(a') unit-suffixed value (9G parsed as 9)", "storage_a", "cifs.compat.level_0", "9G",
       ViolationKind::kBasicType, "ignores G as the unit, using 9 as the value");
  Demo("(b) semantic FILE violation (stopword file is a directory)", "mysql",
       "ft_stopword_file", "/var", ViolationKind::kSemanticType,
       "functional failure of full-text search (no pinpointing message)");
  Demo("(c) semantic PORT violation (occupied ICP port)", "squid", "udp_port", "22",
       ViolationKind::kSemanticType,
       "aborts with the misleading message \"FATAL: Cannot open ICP Port\"");
  Demo("(d) range violation (index_intlen = 300)", "openldap", "index_intlen", "300",
       ViolationKind::kRange, "silently changes the setting to 255 without notifying users");
  Demo("(e) control-dependency violation (fsync off + commit_siblings)", "postgresql",
       "commit_siblings_0", "5", ViolationKind::kControlDep,
       "\"commit_siblings\" silently takes no effect",
       {{"enable_fsync", "off"}});
  Demo("(f) value-relationship violation (min 25 / max 10)", "mysql", "ft_min_word_len", "25",
       ViolationKind::kValueRel, "incorrect results returned by full-text search",
       {{"ft_max_word_len", "10"}});

  std::cout << "Figure 2 (OpenLDAP listener-threads crash):\n";
  Demo("listener-threads = 32 (hard-coded cap is 16)", "openldap", "listener-threads", "32",
       ViolationKind::kBasicType, "server crashes with only \"Segmentation fault\"");
  return 0;
}
