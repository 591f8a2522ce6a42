// Engineering micro-benchmarks (google-benchmark): throughput of each
// pipeline stage on the largest corpus target. Not a paper table — these
// guard against performance regressions in the reproduction itself.
//
// Unless --benchmark_out is given, results are also written to
// BENCH_pipeline.json (google-benchmark JSON format) so the perf
// trajectory is recorded per run. See ROADMAP.md "Benchmarking".
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/api/session.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/serve/server.h"
#include "src/support/verdict_store.h"

namespace spex {
namespace {

const TargetBundle& SquidBundle() {
  static const TargetBundle* kBundle = new TargetBundle(SynthesizeTarget(FindTarget("squid")));
  return *kBundle;
}

void BM_Synthesize(benchmark::State& state) {
  const TargetSpec& spec = FindTarget("squid");
  for (auto _ : state) {
    benchmark::DoNotOptimize(SynthesizeTarget(spec));
  }
}
BENCHMARK(BM_Synthesize);

// Squid loaded once through a process-wide session, for the replay benches.
const TargetAnalysis& SquidAnalysis() {
  static const TargetAnalysis* kAnalysis = [] {
    Session* session = new Session();
    Target* target = session->LoadTarget("squid");
    if (target == nullptr) {
      std::cerr << "perf_pipeline: loading squid failed\n" << session->RenderDiagnostics();
      std::abort();
    }
    return &target->analysis();
  }();
  return *kAnalysis;
}

void BM_ParseAndLower(benchmark::State& state) {
  const TargetBundle& bundle = SquidBundle();
  for (auto _ : state) {
    DiagnosticEngine diags;
    auto unit = ParseSource(bundle.source, "squid.c", &diags);
    benchmark::DoNotOptimize(LowerToIr(*unit, &diags));
  }
}
BENCHMARK(BM_ParseAndLower);

void BM_InferConstraints(benchmark::State& state) {
  const TargetBundle& bundle = SquidBundle();
  DiagnosticEngine diags;
  auto unit = ParseSource(bundle.source, "squid.c", &diags);
  auto module = LowerToIr(*unit, &diags);
  ApiRegistry apis = ApiRegistry::BuiltinC();
  AnnotationFile annotations = ParseAnnotations(bundle.annotations, &diags);
  for (auto _ : state) {
    SpexEngine engine(*module, apis);
    benchmark::DoNotOptimize(engine.Run(annotations, &diags));
  }
}
BENCHMARK(BM_InferConstraints);

// A whole cold target load (what Session::LoadTarget pays), with one
// counter per phase: milliseconds per load spent in synthesize, parse,
// lower, annotate and infer.
void BM_LoadTarget(benchmark::State& state) {
  ApiRegistry apis = ApiRegistry::BuiltinC();
  double phase_ms[5] = {};
  auto timed = [](double* total, auto&& fn) {
    auto start = std::chrono::steady_clock::now();
    fn();
    *total += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                  .count();
  };
  for (auto _ : state) {
    DiagnosticEngine diags;
    TargetBundle bundle;
    std::unique_ptr<TranslationUnit> unit;
    std::unique_ptr<Module> module;
    AnnotationFile annotations;
    timed(&phase_ms[0], [&] { bundle = SynthesizeTarget(FindTarget("squid")); });
    timed(&phase_ms[1], [&] { unit = ParseSource(bundle.source, "squid.c", &diags); });
    timed(&phase_ms[2], [&] { module = LowerToIr(*unit, &diags); });
    timed(&phase_ms[3], [&] { annotations = ParseAnnotations(bundle.annotations, &diags); });
    timed(&phase_ms[4], [&] {
      SpexEngine engine(*module, apis);
      benchmark::DoNotOptimize(engine.Run(annotations, &diags));
    });
  }
  const char* kPhases[5] = {"synthesize_ms", "parse_ms", "lower_ms", "annotate_ms", "infer_ms"};
  for (int i = 0; i < 5; ++i) {
    state.counters[kPhases[i]] =
        benchmark::Counter(phase_ms[i], benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_LoadTarget)->Unit(benchmark::kMillisecond);

void BM_SingleInjection(benchmark::State& state) {
  const TargetAnalysis& analysis = SquidAnalysis();
  InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
  Misconfiguration config;
  config.param = "client_lifetime_0";
  config.value = "9000000000";
  config.kind = ViolationKind::kBasicType;
  config.rule = "bench";
  config.intended_numeric = 9000000000LL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign.RunOne(template_config, config));
  }
}
BENCHMARK(BM_SingleInjection);

void BM_InterpreterStartup(benchmark::State& state) {
  const TargetAnalysis& analysis = SquidAnalysis();
  OsSimulator os = OsSimulator::StandardEnvironment();
  for (auto _ : state) {
    Interpreter interp(*analysis.module, &os);
    benchmark::DoNotOptimize(interp.Call("server_init", {}));
  }
}
BENCHMARK(BM_InterpreterStartup);

void BM_InterpreterReset(benchmark::State& state) {
  const TargetAnalysis& analysis = SquidAnalysis();
  OsSimulator os = OsSimulator::StandardEnvironment();
  Interpreter interp(*analysis.module, &os);
  interp.Call("server_init", {});
  for (auto _ : state) {
    interp.Reset();
    benchmark::ClobberMemory();
  }
  StringPool::Stats pool = interp.pool_stats();
  state.counters["pool_strings"] = static_cast<double>(pool.strings);
  state.counters["pool_bytes"] = static_cast<double>(pool.bytes);
}
BENCHMARK(BM_InterpreterReset);

// Restore of a post-template-parse snapshot — the per-run cost floor of the
// campaign's delta-replay path (everything else a run pays is the delta
// parse + init + tests).
void BM_SnapshotRestore(benchmark::State& state) {
  const TargetAnalysis& analysis = SquidAnalysis();
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
  OsSimulator os = OsSimulator::StandardEnvironment();
  Interpreter interp(*analysis.module, &os);
  for (const ConfigEntry& entry : template_config.entries()) {
    if (entry.kind == ConfigEntry::Kind::kSetting) {
      interp.Call(analysis.bundle.sut.parse_function,
                  {interp.InternedString(entry.key), interp.InternedString(entry.value)});
    }
  }
  Interpreter::Snapshot snapshot = interp.TakeSnapshot();
  for (auto _ : state) {
    interp.RestoreSnapshot(snapshot);
    benchmark::ClobberMemory();
  }
  StringPool::Stats pool = interp.pool_stats();
  state.counters["pool_strings"] = static_cast<double>(pool.strings);
  state.counters["pool_bytes"] = static_cast<double>(pool.bytes);
}
BENCHMARK(BM_SnapshotRestore);

// Full-campaign fixture: squid constraints, generated misconfigurations
// tiled to a >= 200-entry batch so thread scaling has enough work.
struct CampaignFixture {
  const TargetAnalysis* analysis = nullptr;
  ConfigFile template_config;
  std::vector<Misconfiguration> batch;
};

const CampaignFixture& SquidCampaignFixture() {
  static const CampaignFixture* kFixture = [] {
    auto* fixture = new CampaignFixture;
    fixture->analysis = &SquidAnalysis();
    fixture->template_config = ConfigFile::Parse(fixture->analysis->bundle.template_config,
                                                 fixture->analysis->bundle.dialect);
    MisconfigGenerator generator;
    std::vector<Misconfiguration> generated = generator.Generate(fixture->analysis->constraints);
    if (generated.empty()) {
      std::cerr << "perf_pipeline: no misconfigurations generated for squid; "
                << "cannot build campaign batch\n";
      std::abort();
    }
    while (fixture->batch.size() < 200) {
      fixture->batch.insert(fixture->batch.end(), generated.begin(), generated.end());
    }
    return fixture;
  }();
  return *kFixture;
}

// Arg 0: RunAll's num_threads (0 = hardware concurrency, 1 = serial).
// The campaign is constructed per iteration so every RunAll starts cold —
// the snapshot cache is campaign state now, and this benchmark tracks the
// cold-start cost; BM_RepeatedCampaign below tracks the warm path. The
// replay counters are per cold run and must read the same at every
// thread count (whole key-sets per worker).
void BM_CampaignThroughput(benchmark::State& state) {
  const CampaignFixture& fixture = SquidCampaignFixture();
  static ThreadPool* kPool = new ThreadPool(ThreadPool::ResolveThreadCount(0));
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool* pool = threads == 1 ? nullptr : kPool;
  CampaignCacheStats stats;
  for (auto _ : state) {
    InjectionCampaign campaign(*fixture.analysis->module, fixture.analysis->bundle.sut,
                               OsSimulator::StandardEnvironment());
    benchmark::DoNotOptimize(
        campaign.RunAll(fixture.template_config, fixture.batch, nullptr, pool, threads));
    stats = campaign.cache_stats();
  }
  state.counters["full_replays"] = static_cast<double>(stats.full_replays);
  state.counters["delta_replays"] = static_cast<double>(stats.delta_replays);
  state.counters["verifications"] = static_cast<double>(stats.verifications);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.batch.size()));
}
BENCHMARK(BM_CampaignThroughput)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Repeated campaigns through the spex::Session façade: the first RunAll
// builds every key-set snapshot, later ones restore from the campaign's
// persistent cache (each batch still pays one re-verification full replay
// per key-set). snapshots_built_warm == 0 is the cache-hoist contract.
void BM_RepeatedCampaign(benchmark::State& state) {
  static Session* kSession = new Session();
  static Target* kTarget = [] {
    Target* target = kSession->LoadTarget("squid");
    if (target == nullptr) {
      std::cerr << kSession->RenderDiagnostics();
      std::abort();
    }
    target->RunCampaign();  // Warm the snapshot cache.
    return target;
  }();
  size_t built_before = kTarget->campaign_cache_stats().snapshots_built;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kTarget->RunCampaign());
  }
  CampaignCacheStats stats = kTarget->campaign_cache_stats();
  state.counters["snapshots_built_warm"] =
      static_cast<double>(stats.snapshots_built - built_before);
  state.counters["delta_replays"] = static_cast<double>(stats.delta_replays);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTarget->Misconfigurations().size()));
}
BENCHMARK(BM_RepeatedCampaign)->Unit(benchmark::kMillisecond)->UseRealTime();

// Dynamic config check through the façade, on a user config with four
// suspect settings against the squid target. The user-facing latency of
// the embedded checker ("what will the system do with this file?").
const char* kSquidUserConfig =
    "client_lifetime_0 9000000000\n"   // 32-bit overflow, silently truncated
    "memory_pools_0 maybe\n"           // boolean synonym outside the accepted set
    "connect_timeout_0 500ms\n"        // wrong unit scale
    "request_buffer_len_0 1\n";        // below the clamp range

// Cold: a fresh Session (and therefore a fresh campaign + empty snapshot
// cache) per iteration — the first-ever check an embedder pays.
void BM_DynamicCheckCold(benchmark::State& state) {
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  for (auto _ : state) {
    state.PauseTiming();
    {
      Session session;
      Target* target = session.LoadTarget("squid");
      if (target == nullptr) {
        std::cerr << session.RenderDiagnostics();
        std::abort();
      }
      state.ResumeTiming();
      benchmark::DoNotOptimize(target->CheckConfig(kSquidUserConfig, "user.conf", dynamic));
      // Session teardown (campaign, snapshot cache, pool epoch) is setup
      // cost, not check latency: keep it outside the timed region.
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DynamicCheckCold)->Unit(benchmark::kMillisecond)->UseRealTime();

// Warm: repeated checks on one Session whose campaign has already run —
// the steady state of a vendor-embedded checker. snapshots_built_warm == 0
// is the cache-reuse contract (every suspect key-set replays from the
// persistent snapshot cache).
void BM_DynamicCheckWarm(benchmark::State& state) {
  static Session* kSession = new Session();
  static Target* kTarget = [] {
    Target* target = kSession->LoadTarget("squid");
    if (target == nullptr) {
      std::cerr << kSession->RenderDiagnostics();
      std::abort();
    }
    target->RunCampaign();  // Warm the snapshot cache.
    CheckOptions dynamic;
    dynamic.mode = CheckMode::kDynamic;
    // One warm-up check so multi-key key-sets exist in the cache too.
    target->CheckConfig(kSquidUserConfig, "user.conf", dynamic);
    return target;
  }();
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  size_t built_before = kTarget->campaign_cache_stats().snapshots_built;
  size_t checks = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kTarget->CheckConfig(kSquidUserConfig, "user.conf", dynamic));
    ++checks;
  }
  CampaignCacheStats stats = kTarget->campaign_cache_stats();
  state.counters["snapshots_built_warm"] =
      static_cast<double>(stats.snapshots_built - built_before);
  state.SetItemsProcessed(static_cast<int64_t>(checks));
}
BENCHMARK(BM_DynamicCheckWarm)->Unit(benchmark::kMillisecond)->UseRealTime();

// One HTTP round trip against a live CheckServer on loopback: connect,
// send, read to EOF. The serving overhead the daemon adds on top of the
// embedded check above.
std::string ServeRoundTrip(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return std::string();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::string();
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return std::string();
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string ServeCheckRequest() {
  std::string body(kSquidUserConfig);
  std::string request = "POST /check?target=squid&name=user.conf HTTP/1.1\r\n";
  request += "Host: localhost\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

// Cold serve path: a fresh CheckServer (empty target pool, empty snapshot
// cache) per iteration — bind + target load + first dynamic check, the
// worst-case first request after a daemon restart.
void BM_ServeCheckCold(benchmark::State& state) {
  const std::string request = ServeCheckRequest();
  for (auto _ : state) {
    CheckServer server;
    if (!server.Start().ok()) {
      std::cerr << "BM_ServeCheckCold: server failed to start\n";
      std::abort();
    }
    benchmark::DoNotOptimize(ServeRoundTrip(server.port(), request));
    state.PauseTiming();  // Drain is shutdown cost, not request latency.
    server.Shutdown();
    server.Join();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCheckCold)->Unit(benchmark::kMillisecond)->UseRealTime();

// Warm serve path: sustained checks/s through one live daemon whose
// target pool and snapshot cache are hot — the steady state a fleet
// checker sustains. items_per_second is the serve-path throughput number.
void BM_ServeCheckWarm(benchmark::State& state) {
  static CheckServer* kServer = [] {
    auto* server = new CheckServer();
    if (!server->Start().ok()) {
      std::cerr << "BM_ServeCheckWarm: server failed to start\n";
      std::abort();
    }
    return server;
  }();
  const std::string request = ServeCheckRequest();
  ServeRoundTrip(kServer->port(), request);  // Warm the pool + snapshot cache.
  uint64_t ok_before = kServer->stats().served_ok;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ServeRoundTrip(kServer->port(), request));
  }
  state.counters["served_ok"] =
      static_cast<double>(kServer->stats().served_ok - ok_before);
  state.counters["target_loads"] = static_cast<double>(kServer->targets().loads());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCheckWarm)->Unit(benchmark::kMillisecond)->UseRealTime();

// Fleet check: one target, a 50-config corpus whose suspects are ~70%
// duplicated across users (the realistic shape of a misconfiguration
// corpus: many users copy the same broken snippet). 15 unique mutations
// tiled over 50 configs — unique_replays must stay at 15 and dedup_ratio
// at 0.7, and on a warm session snapshots_built_warm must stay 0 (every
// unique execution replays from the persistent snapshot cache).
// Arg 0: BatchOptions::num_threads (1 = serial, 0 = session pool width).
std::vector<ConfigInput>* BuildFleetCorpus(Target* target) {
  auto* corpus = new std::vector<ConfigInput>;
  ConfigFile base = ConfigFile::Parse(target->analysis().bundle.template_config,
                                      target->dialect());
  // 3 misconfigured parameters x 5 value variants = 15 unique executions.
  const char* params[] = {"client_lifetime_0", "connect_timeout_0", "request_buffer_len_0"};
  corpus->reserve(50);
  for (int i = 0; i < 50; ++i) {
    int variant = i % 15;  // 50 configs share 15 unique mutations.
    ConfigFile mutated = base;
    std::string value;
    switch (variant / 5) {
      case 0:
        value = std::to_string(9000000000LL + variant % 5);  // 32-bit overflow.
        break;
      case 1:
        value = std::to_string(500 + variant % 5) + "ms";  // Wrong unit scale.
        break;
      default:
        value = std::to_string(1 + variant % 5);  // Below the clamp range.
    }
    mutated.Set(params[variant / 5], value);
    corpus->push_back(ConfigInput{"user" + std::to_string(i) + ".conf", mutated.Serialize()});
  }
  return corpus;
}

void BM_FleetCheck(benchmark::State& state) {
  static Session* kSession = new Session();
  static Target* kTarget = [] {
    Target* target = kSession->LoadTarget("squid");
    if (target == nullptr) {
      std::cerr << kSession->RenderDiagnostics();
      std::abort();
    }
    return target;
  }();
  static std::vector<ConfigInput>* kCorpus = [] {
    // One warm-up batch so every unique key-set's snapshot exists before
    // timing starts: the steady state of a vendor checking its fleet.
    auto* corpus = BuildFleetCorpus(kTarget);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    kTarget->CheckConfigBatch(*corpus, options);
    return corpus;
  }();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  options.num_threads = static_cast<int>(state.range(0));
  const CampaignCacheStats before = kTarget->campaign_cache_stats();
  BatchSummary last;
  for (auto _ : state) {
    last = kTarget->CheckConfigBatch(*kCorpus, options);
    benchmark::DoNotOptimize(last);
  }
  CampaignCacheStats stats = kTarget->campaign_cache_stats();
  state.counters["snapshots_built_warm"] =
      static_cast<double>(stats.snapshots_built - before.snapshots_built);
  // Replay counters per batch; equal at every thread count.
  const double batches = static_cast<double>(state.iterations());
  state.counters["full_replays"] =
      static_cast<double>(stats.full_replays - before.full_replays) / batches;
  state.counters["delta_replays"] =
      static_cast<double>(stats.delta_replays - before.delta_replays) / batches;
  state.counters["verifications"] =
      static_cast<double>(stats.verifications - before.verifications) / batches;
  state.counters["total_suspects"] = static_cast<double>(last.total_suspects);
  state.counters["unique_replays"] = static_cast<double>(last.unique_replays);
  state.counters["dedup_ratio"] = last.DedupRatio();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCorpus->size()));
}
BENCHMARK(BM_FleetCheck)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond)->UseRealTime();

// Re-check corpus: the opposite dedup regime from BuildFleetCorpus.
// Every config carries ~28 mutations with values unique to that user, so
// within-batch dedup has nothing to collapse and replay work dominates
// the batch — the fleet shape where only a cross-run cache helps. Every
// mutation class below is a statically flagged, replayable suspect.
std::vector<ConfigInput>* BuildRecheckCorpus(Target* target) {
  auto* corpus = new std::vector<ConfigInput>;
  ConfigFile base = ConfigFile::Parse(target->analysis().bundle.template_config,
                                      target->dialect());
  corpus->reserve(50);
  for (int i = 0; i < 50; ++i) {
    ConfigFile mutated = base;
    for (int k = 0; k < 4; ++k) {  // 32-bit overflow.
      mutated.Set("client_lifetime_" + std::to_string(k),
                  std::to_string(9000000000LL + 4 * i + k));
    }
    for (int k = 0; k < 2; ++k) {  // Wrong unit scale: ms where seconds expected.
      mutated.Set("connect_timeout_" + std::to_string(k),
                  std::to_string(500 + 2 * i + k) + "ms");
    }
    for (int k = 0; k < 2; ++k) {  // Wrong unit scale: s where ms expected.
      mutated.Set("dns_retransmit_msec_" + std::to_string(k),
                  std::to_string(1 + 2 * i + k) + "s");
    }
    for (int k = 0; k < 3; ++k) {  // Wrong size suffix.
      mutated.Set("cache_mem_bytes_" + std::to_string(k),
                  std::to_string(1 + 3 * i + k) + "G");
    }
    for (int k = 0; k < 2; ++k) {  // Below the clamp range (512..65536).
      mutated.Set("request_buffer_len_" + std::to_string(k),
                  std::to_string(1 + 2 * i + k));
    }
    for (int k = 0; k < 6; ++k) {  // Not a boolean: silently treated as off.
      mutated.Set("memory_pools_" + std::to_string(k),
                  "maybe" + std::to_string(6 * i + k));
    }
    for (int k = 0; k < 6; ++k) {  // Unknown enum member.
      mutated.Set("cache_replacement_" + std::to_string(k),
                  "fifo" + std::to_string(6 * i + k));
    }
    mutated.Set("fqdn_cache_size", std::to_string(16385 + i));  // Above the range.
    mutated.Set("cache_swap_low_0", std::to_string(85 + i));    // low > high relationship.
    corpus->push_back(ConfigInput{"user" + std::to_string(i) + ".conf", mutated.Serialize()});
  }
  return corpus;
}

// O(diff) fleet re-check through the persistent verdict store. Arg 0:
// 0 = cold (the store is deleted before every check — first-ever run),
// 1 = warm (the store was seeded by a previous run — the nightly re-check
// of an unchanged fleet). Each iteration pays a fresh Session + target
// load + store open under PauseTiming, so the timed region is exactly the
// batch check; warm must report unique_replays == 0 (every unique
// execution served from disk) and land an order of magnitude under cold.
void BM_FleetCheckRecheck(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "spex_bench_recheck.vst").string();
  static std::vector<ConfigInput>* kCorpus = [] {
    Session session;
    Target* target = session.LoadTarget("squid");
    if (target == nullptr) {
      std::cerr << session.RenderDiagnostics();
      std::abort();
    }
    return BuildRecheckCorpus(target);
  }();
  if (warm) {
    // Seed from scratch: one cold batch writes the verdicts every timed
    // iteration will read. Seeding is setup, outside the timed loop.
    std::filesystem::remove(store_path);
    std::filesystem::remove(store_path + ".lock");
    Session session;
    Target* target = session.LoadTarget("squid");
    if (target == nullptr) {
      std::cerr << session.RenderDiagnostics();
      std::abort();
    }
    target->AttachVerdictStore(VerdictStore::Open(store_path));
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = 1;
    target->CheckConfigBatch(*kCorpus, options);
  }
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  options.num_threads = 1;
  BatchSummary last;
  for (auto _ : state) {
    state.PauseTiming();
    if (!warm) {
      std::filesystem::remove(store_path);
      std::filesystem::remove(store_path + ".lock");
    }
    {
      Session session;
      Target* target = session.LoadTarget("squid");
      if (target == nullptr) {
        std::cerr << session.RenderDiagnostics();
        std::abort();
      }
      target->AttachVerdictStore(VerdictStore::Open(store_path));
      state.ResumeTiming();
      last = target->CheckConfigBatch(*kCorpus, options);
      benchmark::DoNotOptimize(last);
      // Session + store teardown is setup cost, not check latency.
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.counters["unique_replays"] = static_cast<double>(last.unique_replays);
  state.counters["store_hits"] = static_cast<double>(last.store_hits);
  state.counters["store_appends"] = static_cast<double>(last.store_appends);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCorpus->size()));
}
BENCHMARK(BM_FleetCheckRecheck)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// Two inline versions of a MiniC server for the matrix benchmark: v2
// tightens worker_threads (64 -> 8) — the upgrade-regression shape.
constexpr const char* kMatrixV1 = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int slots[64];
  int started = 0;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 64 },
    { "idle_timeout", &idle_timeout, 0, 3600 },
    { "cache_kb", &cache_kb, 64, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 4; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < worker_threads; i++) { slots[i] = 1; }
    sleep(idle_timeout);
    sleep(cache_ttl);
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

constexpr const char* kMatrixTemplate =
    "worker_threads = 4\nidle_timeout = 60\ncache_kb = 2048\ncache_ttl = 300\n";

TargetVersion MatrixBenchVersion(const std::string& label, std::string source) {
  TargetVersion version;
  version.label = label;
  version.source = std::move(source);
  version.annotations = "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }";
  version.file_name = label + ".c";
  version.sut.tests.push_back({"started", "test_started", 1, 1});
  for (const char* param : {"worker_threads", "idle_timeout", "cache_kb", "cache_ttl"}) {
    version.sut.param_storage[param] = param;
  }
  version.template_config = kMatrixTemplate;
  return version;
}

std::string MatrixBenchV2() {
  std::string v2 = kMatrixV1;
  v2.replace(v2.find("{ \"worker_threads\", &worker_threads, 1, 64 }"),
             std::strlen("{ \"worker_threads\", &worker_threads, 1, 64 }"),
             "{ \"worker_threads\", &worker_threads, 1, 8 }");
  return v2;
}

// A duplicated upgrade fleet: 10 configs, 4 unique suspect executions.
std::vector<ConfigInput> MatrixBenchFleet() {
  std::vector<ConfigInput> fleet;
  fleet.push_back({"clean-a.conf", kMatrixTemplate});
  fleet.push_back({"clean-b.conf", kMatrixTemplate});
  for (int i = 0; i < 3; ++i) {
    fleet.push_back({"threads-" + std::to_string(i) + ".conf", "worker_threads = 12\n"});
  }
  for (int i = 0; i < 2; ++i) {
    fleet.push_back({"idle-" + std::to_string(i) + ".conf", "idle_timeout = 5400\n"});
  }
  for (int i = 0; i < 2; ++i) {
    fleet.push_back({"cache-" + std::to_string(i) + ".conf", "cache_kb = 32\n"});
  }
  fleet.push_back({"ttl.conf", "cache_ttl = 0\n"});
  return fleet;
}

// Version-matrix check through the per-version verdict-store scopes.
// Arg 0: 0 = cold (store deleted per iteration — the first matrix run),
// 1 = store-warm column refresh: the store was seeded by a {v1, v2}
// matrix, then v2 is bumped — the timed {v1, v2'} matrix must serve the
// unchanged v1 column entirely from disk (unique_replays_unchanged == 0)
// and replay only the bumped column. Each iteration pays Session +
// version loads + store open under PauseTiming (and warm iterations
// restore a pristine copy of the seeded store, so the bumped column's
// appends from iteration N cannot warm iteration N+1); the timed region
// is exactly CheckMatrix.
void BM_VersionMatrix(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "spex_bench_matrix.vst").string();
  const std::string pristine_path = store_path + ".pristine";
  std::vector<ConfigInput> fleet = MatrixBenchFleet();
  std::vector<TargetVersion> versions = {MatrixBenchVersion("v1", kMatrixV1),
                                         MatrixBenchVersion("v2", MatrixBenchV2())};
  std::filesystem::remove(store_path);
  std::filesystem::remove(store_path + ".lock");
  if (warm) {
    // Seed {v1, v2}, then bump v2: the timed matrix is {v1, v2'} where
    // only v2' is cold. Keep a pristine copy of the seeded store to
    // restore every iteration.
    {
      Session session;
      MatrixOptions seed_options;
      seed_options.check.mode = CheckMode::kDynamic;
      seed_options.store = VerdictStore::Open(store_path);
      session.CheckMatrix(versions, fleet, seed_options);
    }
    std::filesystem::copy_file(store_path, pristine_path,
                               std::filesystem::copy_options::overwrite_existing);
    std::string bumped = MatrixBenchV2();
    bumped.replace(bumped.find("{ \"worker_threads\", &worker_threads, 1, 8 }"),
                   std::strlen("{ \"worker_threads\", &worker_threads, 1, 8 }"),
                   "{ \"worker_threads\", &worker_threads, 1, 16 }");
    versions[1] = MatrixBenchVersion("v2-bumped", std::move(bumped));
  }
  MatrixOptions options;
  options.check.mode = CheckMode::kDynamic;
  MatrixSummary last;
  for (auto _ : state) {
    state.PauseTiming();
    if (warm) {
      std::filesystem::copy_file(pristine_path, store_path,
                                 std::filesystem::copy_options::overwrite_existing);
    } else {
      std::filesystem::remove(store_path);
    }
    std::filesystem::remove(store_path + ".lock");
    {
      Session session;
      options.store = VerdictStore::Open(store_path);
      state.ResumeTiming();
      last = session.CheckMatrix(versions, fleet, options);
      benchmark::DoNotOptimize(last);
      // Session + store teardown is setup cost, not matrix latency.
      state.PauseTiming();
      options.store.reset();
    }
    state.ResumeTiming();
  }
  state.counters["cells"] = static_cast<double>(last.cells);
  state.counters["regressions"] = static_cast<double>(
      last.transitions_by_kind[static_cast<size_t>(Transition::kRegression)]);
  state.counters["unique_replays_unchanged"] =
      static_cast<double>(last.columns[0].batch.unique_replays);
  state.counters["unique_replays_bumped"] =
      static_cast<double>(last.columns[1].batch.unique_replays);
  state.counters["store_hits"] = static_cast<double>(last.store_hits);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(last.cells));
}
BENCHMARK(BM_VersionMatrix)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly one response (headers + Content-Length body) so the
// connection survives for the next request — keep-alive clients cannot
// read to EOF.
bool ReadOneHttpResponse(int fd, std::string* out) {
  out->clear();
  char chunk[4096];
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return false;
    }
    out->append(chunk, static_cast<size_t>(n));
    header_end = out->find("\r\n\r\n");
  }
  size_t marker = out->find("Content-Length: ");
  if (marker == std::string::npos || marker > header_end) {
    return false;
  }
  size_t body_length = std::strtoul(out->c_str() + marker + 16, nullptr, 10);
  size_t body_have = out->size() - (header_end + 4);
  while (body_have < body_length) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return false;
    }
    out->append(chunk, static_cast<size_t>(n));
    body_have += static_cast<size_t>(n);
  }
  return true;
}

// Warm serve path over ONE persistent keep-alive connection: what
// BM_ServeCheckWarm pays per request minus the per-request TCP connect +
// teardown. The delta between the two is the keep-alive win.
void BM_ServeCheckWarmKeepAlive(benchmark::State& state) {
  static CheckServer* kServer = [] {
    ServerOptions options;
    options.keepalive_max_requests = 1 << 20;  // The bench reuses one connection.
    auto* server = new CheckServer(std::move(options));
    if (!server->Start().ok()) {
      std::cerr << "BM_ServeCheckWarmKeepAlive: server failed to start\n";
      std::abort();
    }
    return server;
  }();
  std::string body(kSquidUserConfig);
  std::string request = "POST /check?target=squid&name=user.conf HTTP/1.1\r\n";
  request += "Host: localhost\r\nConnection: keep-alive\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  int fd = ConnectLoopback(kServer->port());
  std::string response;
  if (fd >= 0 && (!SendAll(fd, request) || !ReadOneHttpResponse(fd, &response))) {
    ::close(fd);  // Warm-up round trip failed; reconnect in the loop.
    fd = -1;
  }
  uint64_t reuses_before = kServer->stats().keepalive_reuses;
  for (auto _ : state) {
    if (fd < 0) {
      fd = ConnectLoopback(kServer->port());
      if (fd < 0) {
        std::cerr << "BM_ServeCheckWarmKeepAlive: connect failed\n";
        std::abort();
      }
    }
    if (!SendAll(fd, request) || !ReadOneHttpResponse(fd, &response)) {
      ::close(fd);
      fd = -1;
      continue;
    }
    benchmark::DoNotOptimize(response.size());
  }
  if (fd >= 0) {
    ::close(fd);
  }
  state.counters["keepalive_reuses"] =
      static_cast<double>(kServer->stats().keepalive_reuses - reuses_before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCheckWarmKeepAlive)->Unit(benchmark::kMillisecond)->UseRealTime();

// Warm serve throughput with 64 idle keep-alive connections parked on the
// event loop for the whole measurement — the epoll front end's load
// claim, as a number: held connections are a heap entry and an fd, so
// sustained checks/s here should match BM_ServeCheckWarm. Under the old
// thread-per-read design this bench could not exist (64 parked
// connections would pin every worker).
void BM_ServeCheckWarmUnderIdleConnections(benchmark::State& state) {
  static CheckServer* kServer = [] {
    ServerOptions options;
    options.max_connections = 256;
    options.keepalive_max_requests = 1 << 20;
    options.keepalive_idle_timeout = std::chrono::hours(1);  // Parked for the run.
    auto* server = new CheckServer(std::move(options));
    if (!server->Start().ok()) {
      std::cerr << "BM_ServeCheckWarmUnderIdleConnections: server failed to start\n";
      std::abort();
    }
    return server;
  }();
  static std::vector<int>* kHolders = [] {
    auto* holders = new std::vector<int>();
    const std::string ping =
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n"
        "Content-Length: 0\r\n\r\n";
    for (int i = 0; i < 64; ++i) {
      int fd = ConnectLoopback(kServer->port());
      if (fd < 0) {
        continue;
      }
      std::string response;
      if (!SendAll(fd, ping) || !ReadOneHttpResponse(fd, &response)) {
        ::close(fd);
        continue;
      }
      holders->push_back(fd);  // Served once, now parked idle.
    }
    return holders;
  }();
  const std::string request = ServeCheckRequest();
  ServeRoundTrip(kServer->port(), request);  // Warm the pool + snapshot cache.
  for (auto _ : state) {
    benchmark::DoNotOptimize(ServeRoundTrip(kServer->port(), request));
  }
  state.counters["held_connections"] = static_cast<double>(kHolders->size());
  state.counters["idle_keepalive"] = static_cast<double>(kServer->stats().idle_keepalive);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCheckWarmUnderIdleConnections)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace spex

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Default output file so every run records the perf trajectory; an
  // explicit --benchmark_out wins.
  std::string out_flag = "--benchmark_out=BENCH_pipeline.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
