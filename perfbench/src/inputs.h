// Seeded workload inputs. Each generator is a pure function of the seed
// and of the target's own generated misconfigurations, so one seed gives
// byte-identical inputs on every run.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/api/session.h"

namespace perfbench {

// The settings one user mistake writes, primary setting first.
using Settings = std::vector<std::pair<std::string, std::string>>;

inline constexpr size_t kFleetSize = 200;
inline constexpr double kDriftShare = 0.1;

// Replaces the last digit run of `value` with that number plus `delta`, or
// appends `delta` when the value has no digits.
std::string Perturb(const std::string& value, uint64_t delta);

// The template with `mistakes` applied, serialized.
std::string ApplyMistakes(const spex::ConfigFile& template_config,
                          const std::vector<Settings>& mistakes);

// One drawn mistake: misconfiguration `source` of the target, verbatim
// (delta 0, a shared snippet) or with its value perturbed by `delta`.
struct MistakeDraw {
  size_t source = 0;
  uint64_t delta = 0;
};

// Fleet configs for `target`: 3-5 mistakes each from Misconfigurations()
// (those whose replay stays light: no step-budget hangs), about 30% copied
// verbatim from a 12-entry shared snippet pool and the
// rest with a seeded value perturbation. Generation 1 gives every
// perturbed value a fresh one on the same keys (the fleet-recheck drift).
class FleetGenerator {
 public:
  FleetGenerator(spex::Target* target, uint64_t seed);
  std::vector<Settings> Mistakes(size_t index, uint64_t generation) const;
  std::string Flat(size_t index, uint64_t generation) const;
  // The same config as an include tree: a root holding half the template
  // plus includes of 2-3 conf.d fragments (the rest of the template, and
  // the mistakes, some overriding root lines).
  spex::ConfigSetInput Tree(size_t index, uint64_t generation) const;
  uint64_t seed() const { return seed_; }

 private:
  const std::vector<spex::Misconfiguration>& misconfigs_;
  spex::ConfigFile template_;
  uint64_t seed_;
  std::vector<std::vector<MistakeDraw>> draws_;  // Per config.
};

// The fleet-cold batch.
std::vector<spex::ConfigInput> MakeColdFleet(const FleetGenerator& fleet);

// The fleet-recheck include trees: `seeded` is the fleet the store was
// filled from, `current` the fleet re-checked, where about kDriftShare of
// the trees drifted to fresh mistakes.
struct RecheckFleet {
  std::vector<spex::ConfigSetInput> seeded;
  std::vector<spex::ConfigSetInput> current;
  size_t drifted = 0;
};
RecheckFleet MakeRecheckFleet(const FleetGenerator& fleet);

// One /check request of serve-mixed.
struct ServeRequest {
  size_t target = 0;
  bool novel = false;
  std::string body;
};

// serve-mixed traffic over squid, mysql and vsftpd for one round: per
// target a popular pool of 32 bodies picked by Zipf's law (1/rank), and
// novel bodies that give a pool body's mistake a value never sent before
// (same key-set, so its snapshot is already warm).
class ServeTraffic {
 public:
  static const std::vector<std::string>& TargetNames();
  // One element per round. Each round deals its own pools from the same
  // per-target decks, so over the rounds each light misconfiguration lands
  // in a pool about equally often, whatever the seed.
  static std::vector<ServeTraffic> Rounds(const std::vector<spex::Target*>& targets,
                                          uint64_t seed, size_t rounds);

  const std::string& target_name(size_t target) const { return targets_[target].name; }
  // Every pool body, then one novel body per parameter the pool touches.
  std::vector<ServeRequest> WarmupBodies() const;
  // Request `index` of `stream` (0 = warm-up windows, 1 = timed window):
  // about 85% pool repeats and 15% novel bodies.
  ServeRequest Next(uint64_t stream, uint64_t index) const;

 private:
  struct PerTarget {
    std::string name;
    spex::ConfigFile template_config;
    std::vector<std::vector<Settings>> pool;  // By popularity rank.
  };
  ServeTraffic() = default;
  ServeRequest Novel(size_t target, size_t pool_index, size_t mistake, uint64_t delta) const;

  std::vector<PerTarget> targets_;
  std::vector<double> rank_cdf_;
  uint64_t seed_ = 0;
};

// HTTP/1.1 /check request for `request`.
std::string CheckRequestBytes(const ServeTraffic& traffic, const ServeRequest& request,
                              bool keep_alive);
inline constexpr const char* kServeConfigName = "user.conf";

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
