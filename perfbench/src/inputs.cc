#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <set>

namespace perfbench {
namespace {

constexpr size_t kSnippetPool = 12;
constexpr double kSnippetShare = 0.3;
// An assumption, not a measurement: no trace of /check traffic exists.
// Request popularity in web and proxy-cache traces is Zipf-like (Breslau et
// al., "Web Caching and Zipf-like Distributions: Evidence and
// Implications", INFOCOM 1999); the exponent is the classic Zipf law's.
// The pool size is likewise assumed.
constexpr size_t kServePool = 32;
constexpr double kZipfExponent = 1.0;
constexpr double kNovelShare = 0.15;
// A misconfiguration whose replay runs past this many interpreter steps
// (the step-budget hangs and long count loops) would cost 10-50x a typical
// replay. Left in, whether a seed drew it would swing a whole batch.
constexpr int64_t kLightStepBudget = 100'000;

std::string SettingLine(spex::ConfigDialect dialect, const std::string& key,
                        const std::string& value) {
  return dialect == spex::ConfigDialect::kKeyValue ? key + " " + value + "\n"
                                                   : key + " = " + value + "\n";
}

Settings MistakeSettings(const spex::Misconfiguration& source, uint64_t delta) {
  Settings settings;
  settings.emplace_back(source.param, delta == 0 ? source.value : Perturb(source.value, delta));
  settings.insert(settings.end(), source.extra_settings.begin(), source.extra_settings.end());
  return settings;
}

// The misconfigurations of `target` whose replay stays within
// kLightStepBudget steps: the inputs are drawn from these only.
std::vector<size_t> LightMisconfigs(spex::Target* target) {
  const spex::TargetAnalysis& analysis = target->analysis();
  spex::CampaignOptions options;
  options.interp.max_steps = kLightStepBudget;
  spex::InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                                   spex::OsSimulator::StandardEnvironment(), options);
  spex::CampaignSummary summary = campaign.RunAll(
      spex::ConfigFile::Parse(analysis.bundle.template_config, target->dialect()),
      target->Misconfigurations());
  std::vector<size_t> light;
  for (size_t i = 0; i < summary.results.size(); ++i) {
    if (summary.results[i].detail != "step budget exhausted") {
      light.push_back(i);
    }
  }
  return light;
}

// Deals misconfigurations from a shuffled deck, so every seed uses each one
// about equally often and only the order and values change with the seed.
class Deck {
 public:
  Deck(std::vector<size_t> cards, Rng rng) : rng_(rng), cards_(std::move(cards)) { Shuffle(); }
  size_t Deal() {
    if (next_ == cards_.size()) {
      Shuffle();
    }
    return cards_[next_++];
  }

 private:
  void Shuffle() {
    for (size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng_.Below(i)]);
    }
    next_ = 0;
  }
  Rng rng_;
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

// Draws `count` mistakes on distinct keys from `deck`; with `snippets`,
// each mistake is a verbatim snippet with probability kSnippetShare.
std::vector<MistakeDraw> DrawMistakes(const std::vector<spex::Misconfiguration>& misconfigs,
                               const std::vector<size_t>& snippets, size_t count, Deck* deck,
                               Rng* rng) {
  std::vector<MistakeDraw> draws;
  std::set<std::string> used;
  for (size_t attempt = 0; draws.size() < count && attempt < 8 * count; ++attempt) {
    const bool snippet = !snippets.empty() && rng->Chance(kSnippetShare);
    MistakeDraw draw{snippet ? snippets[rng->Below(snippets.size())] : deck->Deal(),
              snippet ? 0 : 1 + rng->Below(997)};
    const Settings settings = MistakeSettings(misconfigs[draw.source], draw.delta);
    bool clash = false;
    for (const auto& [key, value] : settings) {
      clash = clash || used.count(key) > 0;
    }
    if (clash) {
      continue;
    }
    for (const auto& [key, value] : settings) {
      used.insert(key);
    }
    draws.push_back(draw);
  }
  return draws;
}

}  // namespace

std::string Perturb(const std::string& value, uint64_t delta) {
  size_t end = value.size();
  while (end > 0 && !std::isdigit(static_cast<unsigned char>(value[end - 1]))) {
    --end;
  }
  if (end == 0) {
    return value + std::to_string(delta);
  }
  size_t begin = end;
  while (begin > 0 && std::isdigit(static_cast<unsigned char>(value[begin - 1]))) {
    --begin;
  }
  // Only the last 15 digits change, so the magnitude (and any overflow the
  // value was meant to trigger) survives.
  size_t tail = std::max(begin, end > 15 ? end - 15 : size_t{0});
  uint64_t number = std::stoull(value.substr(tail, end - tail)) + delta;
  std::string digits = std::to_string(number);
  return value.substr(0, tail) + digits + value.substr(end);
}

std::string ApplyMistakes(const spex::ConfigFile& template_config,
                          const std::vector<Settings>& mistakes) {
  spex::ConfigFile config = template_config;
  for (const Settings& mistake : mistakes) {
    for (const auto& [key, value] : mistake) {
      config.Set(key, value);
    }
  }
  return config.Serialize();
}

FleetGenerator::FleetGenerator(spex::Target* target, uint64_t seed)
    : misconfigs_(target->Misconfigurations()),
      template_(spex::ConfigFile::Parse(target->analysis().bundle.template_config,
                                        target->dialect())),
      seed_(seed) {
  const std::vector<size_t> light = LightMisconfigs(target);
  Rng rng = Rng(seed).Fork(0x5eed);
  std::vector<size_t> snippets;
  while (snippets.size() < std::min(kSnippetPool, light.size())) {
    size_t pick = light[rng.Below(light.size())];
    if (std::find(snippets.begin(), snippets.end(), pick) == snippets.end()) {
      snippets.push_back(pick);
    }
  }
  Deck deck(light, rng.Fork(1));
  const size_t count_offset = rng.Below(3);
  for (size_t i = 0; i < kFleetSize; ++i) {
    draws_.push_back(DrawMistakes(misconfigs_, snippets, 3 + (i + count_offset) % 3, &deck, &rng));
  }
}

std::vector<Settings> FleetGenerator::Mistakes(size_t index, uint64_t generation) const {
  std::vector<Settings> mistakes;
  for (const MistakeDraw& draw : draws_[index]) {
    // A drifted config keeps its keys; its perturbed values move on.
    uint64_t delta = draw.delta == 0 ? 0 : draw.delta + 1000 * generation;
    mistakes.push_back(MistakeSettings(misconfigs_[draw.source], delta));
  }
  return mistakes;
}

std::string FleetGenerator::Flat(size_t index, uint64_t generation) const {
  return ApplyMistakes(template_, Mistakes(index, generation));
}

spex::ConfigSetInput FleetGenerator::Tree(size_t index, uint64_t generation) const {
  const spex::ConfigDialect dialect = template_.dialect();
  std::vector<Settings> mistakes = Mistakes(index, generation);
  Rng rng = Rng(seed_).Fork((generation << 32) + index + 1).Fork(2);
  const std::string stem = "user" + std::to_string(index);
  const std::string base_name = "conf.d/" + stem + "-base.conf";
  const std::string site_name = "conf.d/" + stem + "-site.conf";
  const std::string host_name = "conf.d/" + stem + "-host.conf";
  const bool with_host = mistakes.size() > 1 && rng.Chance(0.5);

  std::vector<const spex::ConfigEntry*> settings;
  for (const spex::ConfigEntry& entry : template_.entries()) {
    if (entry.kind == spex::ConfigEntry::Kind::kSetting) {
      settings.push_back(&entry);
    }
  }
  const size_t half = settings.size() / 2;
  std::string root, base, site, host;
  for (size_t i = 0; i < settings.size(); ++i) {
    (i < half ? root : base) += SettingLine(dialect, settings[i]->key, settings[i]->value);
  }
  root += SettingLine(dialect, "include", base_name);
  root += SettingLine(dialect, "include", site_name);
  if (with_host) {
    root += SettingLine(dialect, "include", host_name);
  }
  for (size_t m = 0; m < mistakes.size(); ++m) {
    std::string& fragment = with_host && m + 1 == mistakes.size() ? host : site;
    for (const auto& [key, value] : mistakes[m]) {
      fragment += SettingLine(dialect, key, value);
    }
  }
  spex::ConfigSetInput tree;
  tree.name = stem + ".conf";
  tree.files.push_back(spex::ConfigInput{stem + ".conf", root});
  tree.files.push_back(spex::ConfigInput{base_name, base});
  tree.files.push_back(spex::ConfigInput{site_name, site});
  if (with_host) {
    tree.files.push_back(spex::ConfigInput{host_name, host});
  }
  return tree;
}

std::vector<spex::ConfigInput> MakeColdFleet(const FleetGenerator& fleet) {
  std::vector<spex::ConfigInput> configs;
  configs.reserve(kFleetSize);
  for (size_t i = 0; i < kFleetSize; ++i) {
    configs.push_back(spex::ConfigInput{"user" + std::to_string(i) + ".conf", fleet.Flat(i, 0)});
  }
  return configs;
}

RecheckFleet MakeRecheckFleet(const FleetGenerator& fleet) {
  RecheckFleet recheck;
  // Every stride-th config drifts, at an offset the seed picks.
  const size_t stride = static_cast<size_t>(1.0 / kDriftShare);
  const size_t offset = Rng(fleet.seed()).Fork(0xd71f7).Below(stride);
  for (size_t i = 0; i < kFleetSize; ++i) {
    recheck.seeded.push_back(fleet.Tree(i, 0));
    const bool drift = i % stride == offset;
    recheck.current.push_back(drift ? fleet.Tree(i, 1) : recheck.seeded.back());
    recheck.drifted += drift ? 1 : 0;
  }
  return recheck;
}

const std::vector<std::string>& ServeTraffic::TargetNames() {
  static const std::vector<std::string> kNames = {"squid", "mysql", "vsftpd"};
  return kNames;
}

std::vector<ServeTraffic> ServeTraffic::Rounds(const std::vector<spex::Target*>& targets,
                                               uint64_t seed, size_t rounds) {
  std::vector<ServeTraffic> traffic;
  for (size_t r = 0; r < rounds; ++r) {
    traffic.push_back(ServeTraffic());
    traffic.back().seed_ = Rng(seed).Fork(0x7007d000 + r).Next();
  }
  for (size_t t = 0; t < targets.size(); ++t) {
    PerTarget per;
    per.name = targets[t]->name();
    per.template_config = spex::ConfigFile::Parse(targets[t]->analysis().bundle.template_config,
                                                  targets[t]->dialect());
    const std::vector<spex::Misconfiguration>& misconfigs = targets[t]->Misconfigurations();
    Rng rng = Rng(seed).Fork(0x5e77e000 + t);
    Deck deck(LightMisconfigs(targets[t]), rng.Fork(1));
    for (ServeTraffic& round : traffic) {
      per.pool.clear();
      for (size_t j = 0; j < kServePool; ++j) {
        std::vector<Settings> body;
        for (const MistakeDraw& draw : DrawMistakes(misconfigs, {}, 1 + j % 3, &deck, &rng)) {
          body.push_back(MistakeSettings(misconfigs[draw.source], draw.delta));
        }
        per.pool.push_back(std::move(body));
      }
      round.targets_.push_back(per);
    }
  }
  // Zipf's law: the body of popularity rank r (its pool index) is sent with
  // probability proportional to 1/r^kZipfExponent.
  std::vector<double> rank_cdf;
  double total = 0;
  for (size_t j = 0; j < kServePool; ++j) {
    total += 1.0 / std::pow(static_cast<double>(j + 1), kZipfExponent);
    rank_cdf.push_back(total);
  }
  for (double& point : rank_cdf) {
    point /= total;
  }
  for (ServeTraffic& round : traffic) {
    round.rank_cdf_ = rank_cdf;
  }
  return traffic;
}

ServeRequest ServeTraffic::Novel(size_t target, size_t pool_index, size_t mistake,
                                 uint64_t delta) const {
  std::vector<Settings> mistakes = targets_[target].pool[pool_index];
  Settings& changed = mistakes[mistake % mistakes.size()];
  changed.front().second = Perturb(changed.front().second, delta);
  return ServeRequest{target, true, ApplyMistakes(targets_[target].template_config, mistakes)};
}

std::vector<ServeRequest> ServeTraffic::WarmupBodies() const {
  std::vector<ServeRequest> bodies;
  for (size_t t = 0; t < targets_.size(); ++t) {
    for (const std::vector<Settings>& mistakes : targets_[t].pool) {
      bodies.push_back(
          ServeRequest{t, false, ApplyMistakes(targets_[t].template_config, mistakes)});
    }
  }
  for (size_t t = 0; t < targets_.size(); ++t) {
    std::set<std::string> touched;
    for (size_t j = 0; j < targets_[t].pool.size(); ++j) {
      for (size_t m = 0; m < targets_[t].pool[j].size(); ++m) {
        if (touched.insert(targets_[t].pool[j][m].front().first).second) {
          bodies.push_back(Novel(t, j, m, 500));
        }
      }
    }
  }
  return bodies;
}

ServeRequest ServeTraffic::Next(uint64_t stream, uint64_t index) const {
  Rng rng = Rng(seed_).Fork(0x7ea1 + stream).Fork(index);
  size_t target = rng.Below(targets_.size());
  double point = rng.Unit();
  size_t pool_index = static_cast<size_t>(
      std::lower_bound(rank_cdf_.begin(), rank_cdf_.end(), point) - rank_cdf_.begin());
  pool_index = std::min(pool_index, targets_[target].pool.size() - 1);
  if (rng.Chance(kNovelShare)) {
    // Deltas are unique per (stream, index), so every novel body is new.
    return Novel(target, pool_index, rng.Below(3), 1000 + 2 * index + stream);
  }
  return ServeRequest{target, false,
                      ApplyMistakes(targets_[target].template_config,
                                    targets_[target].pool[pool_index])};
}

std::string CheckRequestBytes(const ServeTraffic& traffic, const ServeRequest& request,
                              bool keep_alive) {
  std::string bytes = "POST /check?target=" + traffic.target_name(request.target) +
                      "&name=" + kServeConfigName + " HTTP/1.1\r\nHost: localhost\r\n";
  if (keep_alive) {
    bytes += "Connection: keep-alive\r\n";
  }
  bytes += "Content-Length: " + std::to_string(request.body.size()) + "\r\n\r\n";
  bytes += request.body;
  return bytes;
}

void DumpInputs(uint64_t seed) {
  spex::Session session;
  std::vector<spex::Target*> targets;
  for (const std::string& name : ServeTraffic::TargetNames()) {
    targets.push_back(session.LoadTarget(name));
    if (targets.back() == nullptr) {
      std::cerr << session.RenderDiagnostics();
      std::exit(1);
    }
  }
  FleetGenerator fleet(targets.front(), seed);
  for (const spex::ConfigInput& config : MakeColdFleet(fleet)) {
    std::cout << "=== fleet-cold " << config.name << "\n" << config.text;
  }
  RecheckFleet recheck = MakeRecheckFleet(fleet);
  for (size_t i = 0; i < recheck.current.size(); ++i) {
    for (const auto* set : {&recheck.seeded[i], &recheck.current[i]}) {
      for (const spex::ConfigInput& file : set->files) {
        std::cout << "=== fleet-recheck " << (set == &recheck.seeded[i] ? "seeded " : "current ")
                  << file.name << "\n" << file.text;
      }
    }
  }
  const std::vector<ServeTraffic> rounds = ServeTraffic::Rounds(targets, seed, 2);
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (const ServeRequest& request : rounds[r].WarmupBodies()) {
      std::cout << "=== serve-mixed round " << r << " warmup "
                << rounds[r].target_name(request.target) << "\n"
                << request.body;
    }
    for (uint64_t k = 0; k < 250; ++k) {
      ServeRequest request = rounds[r].Next(1, k);
      std::cout << "=== serve-mixed round " << r << " timed " << k << " "
                << rounds[r].target_name(request.target)
                << (request.novel ? " novel\n" : " repeat\n") << request.body;
    }
  }
}

}  // namespace perfbench
