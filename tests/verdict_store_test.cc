// Persistent verdict store (src/support/verdict_store.h) and its wiring
// through Target::CheckConfigBatch: round-trip bit-identity across reopen
// (serial and sharded), scope isolation + tombstones, corruption /
// truncation / version-skew fallback (never trusted, never fatal),
// single-writer degradation, sampled re-verification, and the soundness
// contracts the injection layer owns — template edits land in a fresh
// scope, checker-deadline verdicts are never cached.
#include "src/support/verdict_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/api/session.h"

namespace spex {
namespace {

// Per-test store path under the system temp dir, scrubbed (data + lock
// sidecar) so every test starts from a genuinely absent store.
std::string TempStorePath(const std::string& tag) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("spex_vst_test_" + tag + ".vst")).string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
  return path;
}

StoredVerdict MakeVerdict(uint8_t category, const std::string& detail) {
  StoredVerdict verdict;
  verdict.category = category;
  verdict.pinpointed = true;
  verdict.tests_run = 3;
  verdict.detail = detail;
  verdict.logs = {"FATAL: " + detail, "second line with \"quotes\" and\nnewline"};
  return verdict;
}

TEST(VerdictStoreTest, RoundTripsEveryFieldAcrossReopen) {
  std::string path = TempStorePath("roundtrip");
  StoredVerdict verdict = MakeVerdict(3, "crash in server_init");
  {
    Status status;
    auto store = VerdictStore::Open(path, {}, &status);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ASSERT_FALSE(store->read_only());
    store->Append(store->ResolveScope("scope-a"), "key-1", verdict);
    store->Flush();
    EXPECT_EQ(store->size(), 1u);
  }
  Status status;
  auto store = VerdictStore::Open(path, {}, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store->stats().loaded_records, 1u);
  uint64_t scope = store->ResolveScope("scope-a");
  StoredVerdict loaded;
  ASSERT_TRUE(store->Lookup(scope, "key-1", &loaded));
  EXPECT_EQ(loaded, verdict);
  // Unknown key and unknown scope both miss; misses are counted.
  EXPECT_FALSE(store->Lookup(scope, "key-2", &loaded));
  EXPECT_FALSE(store->Lookup(store->ResolveScope("scope-b"), "key-1", &loaded));
  EXPECT_EQ(store->stats().hits, 1u);
  EXPECT_EQ(store->stats().misses, 2u);
}

TEST(VerdictStoreTest, ScopesIsolateAndTombstonesSurviveReopen) {
  std::string path = TempStorePath("tombstone");
  StoredVerdict a = MakeVerdict(1, "verdict-a");
  StoredVerdict b = MakeVerdict(2, "verdict-b");
  {
    auto store = VerdictStore::Open(path);
    uint64_t scope_a = store->ResolveScope("scope-a");
    uint64_t scope_b = store->ResolveScope("scope-b");
    store->Append(scope_a, "key", a);
    store->Append(scope_b, "key", b);
    EXPECT_EQ(store->size(), 2u);
    store->Invalidate(scope_a, "key");
    EXPECT_EQ(store->size(), 1u);
  }
  auto store = VerdictStore::Open(path);
  StoredVerdict loaded;
  EXPECT_FALSE(store->Lookup(store->ResolveScope("scope-a"), "key", &loaded))
      << "a tombstone must survive reopen";
  ASSERT_TRUE(store->Lookup(store->ResolveScope("scope-b"), "key", &loaded));
  EXPECT_EQ(loaded, b);
}

TEST(VerdictStoreTest, CorruptTailDropsOnlyTheTailAndStaysWritable) {
  std::string path = TempStorePath("corrupt_tail");
  StoredVerdict first = MakeVerdict(1, "first");
  StoredVerdict second = MakeVerdict(2, "second");
  {
    auto store = VerdictStore::Open(path);
    uint64_t scope = store->ResolveScope("scope");
    store->Append(scope, "key-1", first);
    store->Append(scope, "key-2", second);
  }
  {
    // A torn write: garbage bytes after the last valid frame.
    std::ofstream tail(path, std::ios::binary | std::ios::app);
    tail << std::string(48, '\xAB');
  }
  {
    Status status;
    auto store = VerdictStore::Open(path, {}, &status);
    EXPECT_FALSE(status.ok()) << "a dropped tail must be reported";
    EXPECT_GT(store->stats().dropped_bytes, 0u);
    // The valid prefix is kept...
    StoredVerdict loaded;
    ASSERT_TRUE(store->Lookup(store->ResolveScope("scope"), "key-1", &loaded));
    EXPECT_EQ(loaded, first);
    ASSERT_TRUE(store->Lookup(store->ResolveScope("scope"), "key-2", &loaded));
    EXPECT_EQ(loaded, second);
    // ...and the handle still writes (the bad tail was truncated away).
    ASSERT_FALSE(store->read_only());
    store->Append(store->ResolveScope("scope"), "key-3", MakeVerdict(3, "third"));
  }
  Status status;
  auto store = VerdictStore::Open(path, {}, &status);
  EXPECT_TRUE(status.ok()) << "truncation must have repaired the log: " << status.ToString();
  EXPECT_EQ(store->size(), 3u);
}

TEST(VerdictStoreTest, GarbageHeaderStartsEmptyAndRecovers) {
  std::string path = TempStorePath("garbage_header");
  {
    std::ofstream file(path, std::ios::binary);
    file << "this is not a verdict store at all, but it is longer than a header";
  }
  Status status;
  auto store = VerdictStore::Open(path, {}, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store->size(), 0u) << "a bad header is never trusted";
  EXPECT_GT(store->stats().dropped_bytes, 0u);
  // The handle rebuilt a fresh header: appends round-trip from here on.
  store->Append(store->ResolveScope("scope"), "key", MakeVerdict(1, "fresh"));
  store.reset();
  Status reopened_status;
  auto reopened = VerdictStore::Open(path, {}, &reopened_status);
  EXPECT_TRUE(reopened_status.ok()) << reopened_status.ToString();
  EXPECT_EQ(reopened->size(), 1u);
}

TEST(VerdictStoreTest, VersionSkewStartsEmpty) {
  std::string path = TempStorePath("version_skew");
  {
    // Valid magic, future version: a downgraded binary must not guess at
    // a format it does not know.
    std::ofstream file(path, std::ios::binary);
    file << "SPEXVST1";
    uint32_t version = 99;
    uint32_t reserved = 0;
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    file.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
    file << std::string(64, 'x');
  }
  Status status;
  auto store = VerdictStore::Open(path, {}, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store->size(), 0u);
}

TEST(VerdictStoreTest, SecondHandleDegradesToReadOnlyAndDropsAppends) {
  std::string path = TempStorePath("second_writer");
  auto writer = VerdictStore::Open(path);
  ASSERT_FALSE(writer->read_only());
  writer->Append(writer->ResolveScope("scope"), "key", MakeVerdict(1, "from writer"));
  writer->Flush();

  Status status;
  auto reader = VerdictStore::Open(path, {}, &status);
  EXPECT_FALSE(status.ok()) << "losing the writer race must be reported";
  EXPECT_TRUE(reader->read_only());
  StoredVerdict loaded;
  EXPECT_TRUE(reader->Lookup(reader->ResolveScope("scope"), "key", &loaded))
      << "read-only handles still serve what was durable at open";
  reader->Append(reader->ResolveScope("scope"), "key-2", MakeVerdict(2, "dropped"));
  EXPECT_EQ(reader->stats().dropped_appends, 1u);
  EXPECT_FALSE(reader->Lookup(reader->ResolveScope("scope"), "key-2", &loaded));
}

// An unwritable store path (here: a missing parent directory, which fails
// even for root) must degrade to read-only-acting-empty with a status that
// blames the path, NOT the "writer lock held elsewhere" contention message
// — the operator's fix is completely different. Appends are dropped and
// counted; checking continues.
TEST(VerdictStoreTest, UnwritablePathDegradesWithPathBlamingStatus) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "spex_vst_no_such_parent" / "store.vst")
                         .string();
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "spex_vst_no_such_parent");
  Status status;
  auto store = VerdictStore::Open(path, {}, &status);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("unwritable"), std::string::npos) << status.ToString();
  EXPECT_EQ(status.message().find("held elsewhere"), std::string::npos)
      << "lock-creation failure must not masquerade as writer contention: "
      << status.ToString();
  EXPECT_TRUE(store->read_only());

  // Degraded handles stay usable: lookups miss, appends drop and count.
  StoredVerdict loaded;
  EXPECT_FALSE(store->Lookup(store->ResolveScope("scope"), "key", &loaded));
  store->Append(store->ResolveScope("scope"), "key", MakeVerdict(1, "dropped"));
  EXPECT_EQ(store->stats().dropped_appends, 1u);
}

TEST(VerdictStoreTest, ReverifyPeriodSamplesHits) {
  std::string path = TempStorePath("reverify");
  VerdictStoreOptions options;
  options.reverify_period = 2;
  auto store = VerdictStore::Open(path, options);
  uint64_t scope = store->ResolveScope("scope");
  store->Append(scope, "key", MakeVerdict(1, "sampled"));
  StoredVerdict loaded;
  bool due = false;
  ASSERT_TRUE(store->Lookup(scope, "key", &loaded, &due));
  EXPECT_TRUE(due) << "the first hit each process makes is always re-verified";
  ASSERT_TRUE(store->Lookup(scope, "key", &loaded, &due));
  EXPECT_FALSE(due);
  ASSERT_TRUE(store->Lookup(scope, "key", &loaded, &due));
  EXPECT_TRUE(due);
}

TEST(VerdictStoreTest, CompactionPreservesLiveRecordsAcrossReopen) {
  std::string path = TempStorePath("compact");
  StoredVerdict final_verdict = MakeVerdict(4, "overwritten");
  {
    auto store = VerdictStore::Open(path);
    uint64_t scope_a = store->ResolveScope("scope-a");
    uint64_t scope_b = store->ResolveScope("scope-b");
    store->Append(scope_a, "key", MakeVerdict(1, "stale"));
    store->Append(scope_a, "key", final_verdict);  // Last-wins overwrite.
    store->Append(scope_b, "key", MakeVerdict(2, "doomed"));
    store->Invalidate(scope_b, "key");
    ASSERT_TRUE(store->Compact().ok());
    EXPECT_EQ(store->stats().compactions, 1u);
    EXPECT_EQ(store->size(), 1u);
  }
  Status status;
  auto store = VerdictStore::Open(path, {}, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store->size(), 1u);
  StoredVerdict loaded;
  ASSERT_TRUE(store->Lookup(store->ResolveScope("scope-a"), "key", &loaded))
      << "scope ids must survive compaction + reopen";
  EXPECT_EQ(loaded, final_verdict);
  EXPECT_FALSE(store->Lookup(store->ResolveScope("scope-b"), "key", &loaded));
}

// --- Batch wiring: the store through Target::CheckConfigBatch. Fixture
// mirrors tests/batch_check_test.cc (same target, same corpus) so the
// dedup constants — 10 suspects, 7 unique executions — carry over.

constexpr const char* kFleetServerSource = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int log_format = 0;
  int use_cache = 1;
  int slots[64];
  int started = 0;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 64 },
    { "idle_timeout", &idle_timeout, 0, 3600 },
    { "cache_kb", &cache_kb, 64, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  void parse_extra(char *key, char *value) {
    if (!strcasecmp(key, "log_format")) {
      if (!strcmp(value, "plain")) { log_format = 0; }
      else if (!strcmp(value, "json")) { log_format = 1; }
    }
    if (!strcasecmp(key, "use_cache")) {
      if (!strcasecmp(value, "on")) { use_cache = 1; } else { use_cache = 0; }
    }
  }
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 4; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    parse_extra(key, value);
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < worker_threads; i++) { slots[i] = 1; }
    long bytes = cache_kb * 1024;
    malloc(bytes);
    sleep(idle_timeout);
    if (use_cache != 0) {
      sleep(cache_ttl);
    }
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

constexpr const char* kFleetServerAnnotations =
    "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }\n"
    "@PARSER parse_extra { par = arg0, var = arg1 }";

constexpr const char* kFleetServerTemplate =
    "worker_threads = 4\n"
    "idle_timeout = 60\n"
    "cache_kb = 2048\n"
    "cache_ttl = 300\n"
    "log_format = plain\n"
    "use_cache = on\n";

Target* LoadFleetServer(Session& session, const char* template_config = kFleetServerTemplate) {
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  for (const char* param :
       {"worker_threads", "idle_timeout", "cache_kb", "cache_ttl", "log_format", "use_cache"}) {
    sut.param_storage[param] = param;
  }
  Target* target =
      session.LoadSource(kFleetServerSource, kFleetServerAnnotations, "fleet.c",
                         ConfigDialect::kKeyEqualsValue, sut, template_config);
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  return target;
}

std::vector<ConfigInput> FleetCorpus() {
  return {
      {"clean-1.conf", kFleetServerTemplate},
      {"garbage-a.conf", "worker_threads = not_a_number\n"},
      {"crash.conf", "worker_threads = 99\n"},
      {"garbage-b.conf", "worker_threads = not_a_number\n"},
      {"ignored.conf", "use_cache = off\ncache_ttl = 600\n"},
      {"garbage-c.conf", "worker_threads = not_a_number\n"},
      {"typo.conf", "worker_treads = 8\n"},
      {"clean-2.conf", "idle_timeout = 120\n"},
      {"multi.conf", "worker_threads = not_a_number\ncache_kb = 9999999999\n"},
  };
}

// Field-by-field Violation equality including every dynamic-verdict field
// — a store hit must be indistinguishable from the replay it replaces.
void ExpectSameViolations(const std::vector<Violation>& expected,
                          const std::vector<Violation>& actual, const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Violation& a = expected[i];
    const Violation& b = actual[i];
    EXPECT_EQ(a.category, b.category) << label << " #" << i;
    EXPECT_EQ(a.param, b.param) << label << " #" << i;
    EXPECT_EQ(a.value, b.value) << label << " #" << i;
    EXPECT_EQ(a.file, b.file) << label << " #" << i;
    EXPECT_EQ(a.line, b.line) << label << " #" << i;
    EXPECT_EQ(a.message, b.message) << label << " #" << i;
    EXPECT_EQ(a.constraint_loc.LineKey(), b.constraint_loc.LineKey()) << label << " #" << i;
    ASSERT_EQ(a.reaction.has_value(), b.reaction.has_value()) << label << " #" << i;
    if (a.reaction.has_value()) {
      EXPECT_EQ(*a.reaction, *b.reaction) << label << " #" << i;
    }
    EXPECT_EQ(a.reaction_detail, b.reaction_detail) << label << " #" << i;
    EXPECT_EQ(a.evidence_logs, b.evidence_logs) << label << " #" << i;
    EXPECT_EQ(a.prediction, b.prediction) << label << " #" << i;
  }
}

TEST(VerdictStoreBatchTest, WarmBatchFromDiskIsBitIdenticalSerialAndSharded) {
  std::string path = TempStorePath("warm_identity");
  std::vector<ConfigInput> corpus = FleetCorpus();

  // Cold: a fresh session populates the store — every unique execution is
  // a store miss, replayed live and appended.
  BatchSummary cold;
  {
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    target->AttachVerdictStore(VerdictStore::Open(path));
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    cold = target->CheckConfigBatch(corpus, options);
    EXPECT_EQ(cold.unique_replays, 7u);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_EQ(cold.store_misses, 7u);
    EXPECT_EQ(cold.store_appends, 7u);
    EXPECT_EQ(cold.finalized_overlapped, 0u) << "serial batches never overlap finalization";
  }

  // Warm: a brand-new process-equivalent (fresh session, store reopened
  // from disk) re-checks the unchanged fleet. Zero replays, every verdict
  // served from the store, reports field-for-field identical — at one
  // shard and at four.
  for (int threads : {1, 4}) {
    Session session(SessionOptions{.campaign_threads = 4});
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    target->AttachVerdictStore(VerdictStore::Open(path));
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = threads;
    BatchSummary warm = target->CheckConfigBatch(corpus, options);
    std::string label = "warm @" + std::to_string(threads) + " threads";
    EXPECT_EQ(warm.unique_replays, 0u) << label;
    EXPECT_EQ(warm.store_hits, 7u) << label;
    EXPECT_EQ(warm.store_misses, 0u) << label;
    EXPECT_EQ(warm.store_appends, 0u) << label;
    EXPECT_EQ(warm.total_suspects, cold.total_suspects) << label;
    ASSERT_EQ(warm.reports.size(), cold.reports.size()) << label;
    for (size_t i = 0; i < cold.reports.size(); ++i) {
      ExpectSameViolations(cold.reports[i].violations, warm.reports[i].violations,
                           label + " " + cold.reports[i].name);
    }
  }
}

TEST(VerdictStoreBatchTest, TemplateEditLandsInAFreshScope) {
  std::string path = TempStorePath("template_edit");
  std::vector<ConfigInput> corpus = FleetCorpus();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;

  {
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    target->AttachVerdictStore(VerdictStore::Open(path));
    BatchSummary seed = target->CheckConfigBatch(corpus, options);
    EXPECT_EQ(seed.store_appends, 7u);
  }
  {
    // One character of template drift (idle_timeout 60 -> 61) changes what
    // deviates and what rides along as context — every stored verdict for
    // the old template must be unreachable, not almost-matching.
    Session session;
    Target* target = LoadFleetServer(session,
                                     "worker_threads = 4\n"
                                     "idle_timeout = 61\n"
                                     "cache_kb = 2048\n"
                                     "cache_ttl = 300\n"
                                     "log_format = plain\n"
                                     "use_cache = on\n");
    ASSERT_NE(target, nullptr);
    target->AttachVerdictStore(VerdictStore::Open(path));
    BatchSummary edited = target->CheckConfigBatch(corpus, options);
    EXPECT_EQ(edited.store_hits, 0u) << "an edited template must re-check cold";
    EXPECT_GT(edited.store_appends, 0u);
  }
  {
    // The original template's scope is untouched: re-checking it is warm.
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    target->AttachVerdictStore(VerdictStore::Open(path));
    BatchSummary warm = target->CheckConfigBatch(corpus, options);
    EXPECT_EQ(warm.store_hits, 7u);
    EXPECT_EQ(warm.unique_replays, 0u);
  }
}

TEST(VerdictStoreBatchTest, CheckerDeadlineVerdictsAreNeverCached) {
  std::string path = TempStorePath("deadline");
  std::vector<ConfigInput> corpus = {
      {"clean.conf", kFleetServerTemplate},
      {"poisoned.conf", "worker_threads = 99\n"},
  };
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  auto store = VerdictStore::Open(path);
  target->AttachVerdictStore(store);
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  options.check.deadline = std::chrono::nanoseconds(1);  // Expired at first poll.
  BatchSummary summary = target->CheckConfigBatch(corpus, options);
  ASSERT_EQ(summary.reports.size(), 2u);
  EXPECT_EQ(summary.reports[1].status.code(), StatusCode::kDeadlineExceeded);
  // kDeadlineExceeded is a verdict about the checker's budget, not the
  // SUT: caching it would freeze a transient timeout into a permanent lie.
  EXPECT_EQ(summary.store_appends, 0u);
  EXPECT_EQ(store->size(), 0u);
}

TEST(VerdictStoreBatchTest, SampledReverificationConfirmsWithoutRewrites) {
  std::string path = TempStorePath("reverify_batch");
  std::vector<ConfigInput> corpus = FleetCorpus();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;

  BatchSummary cold;
  {
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    target->AttachVerdictStore(VerdictStore::Open(path));
    cold = target->CheckConfigBatch(corpus, options);
    EXPECT_EQ(cold.store_appends, 7u);
  }

  // reverify_period = 1: every hit is replayed live anyway and compared.
  // The replays must all confirm (nothing rewritten) and the reports stay
  // identical — the sampling knob costs time, never changes answers.
  VerdictStoreOptions reverify_all;
  reverify_all.reverify_period = 1;
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  target->AttachVerdictStore(VerdictStore::Open(path, reverify_all));
  BatchSummary checked = target->CheckConfigBatch(corpus, options);
  EXPECT_EQ(checked.unique_replays, 7u) << "re-verified hits replay live";
  EXPECT_EQ(checked.store_appends, 0u) << "confirmations rewrite nothing";
  CampaignCacheStats stats = target->campaign_cache_stats();
  EXPECT_EQ(stats.store_reverified, 7u);
  EXPECT_EQ(stats.store_mismatches, 0u);
  ASSERT_EQ(checked.reports.size(), cold.reports.size());
  for (size_t i = 0; i < cold.reports.size(); ++i) {
    ExpectSameViolations(cold.reports[i].violations, checked.reports[i].violations,
                         "reverify " + cold.reports[i].name);
  }
}

}  // namespace
}  // namespace spex
