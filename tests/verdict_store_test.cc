// Persistent verdict store (src/support/verdict_store.h) and its wiring
// through Target::CheckConfigBatch: round-trip bit-identity across reopen
// (serial and sharded), scope isolation and last-write-wins, corruption /
// truncation / version-skew fallback (never trusted, never fatal, also
// under a seeded mutation harness), single-writer degradation, and the
// soundness contracts the injection layer owns — template edits land in a
// fresh scope, checker-deadline verdicts are never cached.
#include "src/support/verdict_store.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/api/session.h"
#include "src/support/rng.h"

namespace spex {
namespace {

// Per-test store path under the system temp dir, scrubbed (data + lock
// sidecar) so every test starts from a genuinely absent store.
std::string TempStorePath(const std::string& tag) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("spex_vst_test_" + tag + ".vst")).string();
  std::filesystem::remove_all(path);
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

// One-record AppendBatch; returns how many records were written.
size_t Put(VerdictStore& store, std::string_view scope, const std::string& key,
           StoredVerdict verdict) {
  std::vector<VerdictAppend> one;
  one.push_back({store.ResolveScope(scope), key, std::move(verdict)});
  return store.AppendBatch(std::move(one));
}

TEST(VerdictStoreTest, RoundTripsEveryFieldAcrossReopen) {
  std::string path = TempStorePath("roundtrip");
  StoredVerdict verdict = MakeVerdict(3, "crash in server_init");
  {
    Status status;
    auto store = VerdictStore::Open(path, &status);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ASSERT_FALSE(store->read_only());
    EXPECT_EQ(Put(*store, "scope-a", "key-1", verdict), 1u);
    EXPECT_EQ(Put(*store, "scope-a", "key-1", verdict), 0u) << "an equal record is not rewritten";
    store->Flush();
    EXPECT_EQ(store->size(), 1u);
  }
  Status status;
  auto store = VerdictStore::Open(path, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store->size(), 1u);
  uint64_t scope = store->ResolveScope("scope-a");
  StoredVerdict loaded;
  ASSERT_TRUE(store->Lookup(scope, "key-1", &loaded));
  EXPECT_EQ(loaded, verdict);
  // Unknown key and unknown scope both miss.
  EXPECT_FALSE(store->Lookup(scope, "key-2", &loaded));
  EXPECT_FALSE(store->Lookup(store->ResolveScope("scope-b"), "key-1", &loaded));
}

TEST(VerdictStoreTest, ScopesIsolateAndLastWriteWinsAcrossReopen) {
  std::string path = TempStorePath("scopes");
  StoredVerdict a = MakeVerdict(1, "verdict-a");
  StoredVerdict b = MakeVerdict(2, "verdict-b");
  StoredVerdict final_a = MakeVerdict(4, "overwritten");
  {
    auto store = VerdictStore::Open(path);
    Put(*store, "scope-a", "key", a);
    Put(*store, "scope-b", "key", b);
    EXPECT_EQ(store->size(), 2u);
    Put(*store, "scope-a", "key", final_a);
    EXPECT_EQ(store->size(), 2u);
  }
  auto store = VerdictStore::Open(path);
  EXPECT_EQ(store->size(), 2u);
  StoredVerdict loaded;
  ASSERT_TRUE(store->Lookup(store->ResolveScope("scope-a"), "key", &loaded))
      << "scope ids must survive reopen";
  EXPECT_EQ(loaded, final_a) << "the last record for a key wins on reload";
  ASSERT_TRUE(store->Lookup(store->ResolveScope("scope-b"), "key", &loaded));
  EXPECT_EQ(loaded, b);
}

TEST(VerdictStoreTest, CorruptTailDropsOnlyTheTailAndStaysWritable) {
  std::string path = TempStorePath("corrupt_tail");
  StoredVerdict first = MakeVerdict(1, "first");
  StoredVerdict second = MakeVerdict(2, "second");
  {
    auto store = VerdictStore::Open(path);
    Put(*store, "scope", "key-1", first);
    Put(*store, "scope", "key-2", second);
  }
  {
    // A torn write: garbage bytes after the last valid frame.
    std::ofstream tail(path, std::ios::binary | std::ios::app);
    tail << std::string(48, '\xAB');
  }
  {
    Status status;
    auto store = VerdictStore::Open(path, &status);
    EXPECT_NE(status.message().find("dropped 48 bytes"), std::string::npos)
        << "a dropped tail must be reported: " << status.ToString();
    // The valid prefix is kept...
    StoredVerdict loaded;
    ASSERT_TRUE(store->Lookup(store->ResolveScope("scope"), "key-1", &loaded));
    EXPECT_EQ(loaded, first);
    ASSERT_TRUE(store->Lookup(store->ResolveScope("scope"), "key-2", &loaded));
    EXPECT_EQ(loaded, second);
    // ...and the handle still writes (the bad tail was truncated away).
    ASSERT_FALSE(store->read_only());
    EXPECT_EQ(Put(*store, "scope", "key-3", MakeVerdict(3, "third")), 1u);
  }
  Status status;
  auto store = VerdictStore::Open(path, &status);
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
  auto store = VerdictStore::Open(path, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store->size(), 0u) << "a bad header is never trusted";
  // The handle rebuilt a fresh header: appends round-trip from here on.
  Put(*store, "scope", "key", MakeVerdict(1, "fresh"));
  store.reset();
  Status reopened_status;
  auto reopened = VerdictStore::Open(path, &reopened_status);
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
  auto store = VerdictStore::Open(path, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store->size(), 0u);
}

TEST(VerdictStoreTest, SecondHandleDegradesToReadOnlyAndDropsAppends) {
  std::string path = TempStorePath("second_writer");
  auto writer = VerdictStore::Open(path);
  ASSERT_FALSE(writer->read_only());
  Put(*writer, "scope", "key", MakeVerdict(1, "from writer"));
  writer->Flush();

  Status status;
  auto reader = VerdictStore::Open(path, &status);
  EXPECT_FALSE(status.ok()) << "losing the writer race must be reported";
  EXPECT_TRUE(reader->read_only());
  StoredVerdict loaded;
  EXPECT_TRUE(reader->Lookup(reader->ResolveScope("scope"), "key", &loaded))
      << "read-only handles still serve what was durable at open";
  EXPECT_EQ(Put(*reader, "scope", "key-2", MakeVerdict(2, "dropped")), 0u);
  EXPECT_FALSE(reader->Lookup(reader->ResolveScope("scope"), "key-2", &loaded));
}

// An unwritable store path (here: a missing parent directory, which fails
// even for root) must degrade to read-only-acting-empty with a status that
// blames the path, NOT the "writer lock held elsewhere" contention message
// — the operator's fix is completely different. Appends are dropped;
// checking continues.
TEST(VerdictStoreTest, UnwritablePathDegradesWithPathBlamingStatus) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "spex_vst_no_such_parent" / "store.vst")
                         .string();
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "spex_vst_no_such_parent");
  Status status;
  auto store = VerdictStore::Open(path, &status);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("unwritable"), std::string::npos) << status.ToString();
  EXPECT_EQ(status.message().find("held elsewhere"), std::string::npos)
      << "lock-creation failure must not masquerade as writer contention: "
      << status.ToString();
  EXPECT_TRUE(store->read_only());

  // Degraded handles stay usable: lookups miss, appends drop.
  StoredVerdict loaded;
  EXPECT_FALSE(store->Lookup(store->ResolveScope("scope"), "key", &loaded));
  EXPECT_EQ(Put(*store, "scope", "key", MakeVerdict(1, "dropped")), 0u);
}

// The lock file can be created but the data file cannot be opened (the
// path is a directory, which fails open(O_RDWR) even for root): the
// handle acts empty and read-only, and must not keep the writer lock it
// cannot use.
TEST(VerdictStoreTest, UnopenableDataFileReleasesTheWriterLock) {
  std::string path = TempStorePath("data_is_a_directory");
  std::filesystem::create_directory(path);
  Status status;
  auto store = VerdictStore::Open(path, &status);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_TRUE(store->read_only());
  EXPECT_EQ(store->size(), 0u);

  int fd = ::open((path + ".lock").c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0)
      << "a handle that cannot write must release the writer lock";
  ::close(fd);
  store.reset();
  std::filesystem::remove_all(path);
}

// CRC32 (IEEE, reflected), as the store frames its records.
uint32_t Crc32(std::string_view bytes) {
  uint32_t crc = 0xffffffffu;
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
  }
  return ~crc;
}

// A well-framed record of type 3, which older builds declared as a
// tombstone for (scope 0, `key`) but never wrote.
std::string OldTombstoneFrame(const std::string& key) {
  auto put_u32 = [](std::string* out, uint32_t value) {
    out->append(reinterpret_cast<const char*>(&value), 4);
  };
  std::string payload(1, '\x03');
  payload.append(8, '\0');
  put_u32(&payload, static_cast<uint32_t>(key.size()));
  payload += key;
  std::string frame;
  put_u32(&frame, Crc32(payload));
  put_u32(&frame, static_cast<uint32_t>(payload.size()));
  return frame + payload;
}

// Seeded mutation harness over VerdictStore::Open: a log holding verdicts
// in two scopes is bit-flipped, overwritten and truncated — at random
// offsets and at every record boundary — and reopened. Whatever survives
// must be something that was written under that very key, never more
// records than were written, and the repaired file must reopen cleanly.
TEST(VerdictStoreMutationTest, MutatedLogsNeverServeUnwrittenVerdicts) {
  const std::string path = TempStorePath("mutation");
  const std::vector<std::string> scopes = {"scope-a", "scope-b"};
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) keys.push_back("key-" + std::to_string(i));
  // (scope, key) -> every verdict ever written under it.
  std::map<std::pair<std::string, std::string>, std::vector<StoredVerdict>> written;
  size_t records_written = 0;
  {
    auto store = VerdictStore::Open(path);
    for (int round = 0; round < 2; ++round) {
      for (const std::string& scope : scopes) {
        for (size_t k = 0; k < keys.size(); k += round + 1) {  // Round 1 overwrites half.
          StoredVerdict verdict =
              MakeVerdict(static_cast<uint8_t>(k), scope + "/" + keys[k] + "#" + std::to_string(round));
          verdict.logs.resize(k);  // Vary record lengths, down to no logs.
          records_written += Put(*store, scope, keys[k], verdict);
          written[{scope, keys[k]}].push_back(std::move(verdict));
        }
      }
    }
  }
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(records_written, 18u);
  // Frame starts ([crc][len][payload] after the 16-byte header) and the end.
  std::vector<size_t> boundaries = {16};
  while (boundaries.back() + 8 <= pristine.size()) {
    uint32_t len = 0;
    std::memcpy(&len, pristine.data() + boundaries.back() + 4, 4);
    boundaries.push_back(boundaries.back() + 8 + len);
  }
  ASSERT_EQ(boundaries.back(), pristine.size());
  ASSERT_EQ(boundaries.size(), 1 + 2 + records_written) << "header, 2 interns, every verdict";

  DeterministicRng rng(0x5eed);
  // Writes `bytes` as the store, checks the invariants and returns how
  // many verdicts the reopened store serves.
  auto check = [&](const std::string& bytes, const std::string& what) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    size_t served = 0;
    {
      auto store = VerdictStore::Open(path);
      EXPECT_FALSE(store->read_only()) << what;
      EXPECT_LE(store->size(), written.size()) << what;
      for (const std::string& scope : scopes) {
        uint64_t id = store->ResolveScope(scope);
        for (const std::string& key : keys) {
          StoredVerdict loaded;
          if (!store->Lookup(id, key, &loaded)) continue;
          ++served;
          auto it = written.find({scope, key});
          if (it == written.end()) {
            ADD_FAILURE() << what << ": served a never-written key " << key;
            continue;
          }
          EXPECT_NE(std::find(it->second.begin(), it->second.end(), loaded), it->second.end())
              << what << ": " << scope << "/" << key << " served a verdict never written there";
        }
        StoredVerdict loaded;
        EXPECT_FALSE(store->Lookup(id, "never-written", &loaded)) << what;
      }
      EXPECT_EQ(served, store->size()) << what << ": index holds keys outside the written set";
    }
    // The first writable open repaired the file: a second one is clean
    // and serves exactly what the first served.
    Status status;
    auto reopened = VerdictStore::Open(path, &status);
    EXPECT_TRUE(status.ok()) << what << ": " << status.ToString();
    EXPECT_EQ(reopened->size(), served) << what;
    return served;
  };

  for (size_t b = 0; b < boundaries.size(); ++b) {
    const size_t at = boundaries[b];
    const std::string where = "boundary " + std::to_string(b);
    const size_t prefix = check(pristine.substr(0, at), "truncate at " + where);
    // A well-framed record of an unknown type ends the trusted prefix.
    EXPECT_EQ(check(pristine.substr(0, at) + OldTombstoneFrame("key-0") + pristine.substr(at),
                    "old tombstone at " + where),
              prefix);
    if (at == pristine.size()) break;
    check(pristine.substr(0, at + 1 + rng.NextBounded(7)), "truncate inside frame header at " + where);
    std::string flipped = pristine;
    flipped[at + rng.NextBounded(8)] ^= static_cast<char>(1u << rng.NextBounded(8));
    check(flipped, "flip frame header bit at " + where);
    std::string payload = pristine;
    payload[at + 8 + rng.NextBounded(boundaries[b + 1] - at - 8)] ^= 0x01;
    check(payload, "flip payload bit at " + where);
  }
  for (int i = 0; i < 6000; ++i) {
    std::string bytes = pristine;
    switch (rng.NextBounded(3)) {
      case 0:
        for (uint64_t n = 1 + rng.NextBounded(3); n > 0; --n) {
          bytes[rng.NextBounded(bytes.size())] ^= static_cast<char>(1u << rng.NextBounded(8));
        }
        break;
      case 1: {
        size_t at = rng.NextBounded(bytes.size());
        for (uint64_t n = 1 + rng.NextBounded(8); n > 0 && at < bytes.size(); --n, ++at) {
          bytes[at] = static_cast<char>(rng.NextBounded(256));
        }
        break;
      }
      default:
        bytes.resize(rng.NextBounded(bytes.size()));
        break;
    }
    check(bytes, "random mutation " + std::to_string(i));
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
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

}  // namespace
}  // namespace spex
