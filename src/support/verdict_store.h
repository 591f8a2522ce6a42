// Persistent cross-run verdict store: an on-disk map from
// (scope fingerprint, execution key) -> stored verdict.
//
// PR 5 proved that suspects with the same execution identity produce the
// same verdict *within* a batch (SuspectExecutionKey dedup). This store
// extends that identity across time: a fleet re-check after a small config
// push replays only never-before-seen executions — O(diff) instead of
// O(fleet). The store itself is deliberately semantics-free: it maps
// opaque (scope, key) pairs to small records with an opaque category tag.
// The injection layer owns what the fields mean and, critically, what goes
// into the scope fingerprint — any input that could change a verdict
// (target source, annotations, SUT spec, template, campaign options) must
// be folded into the scope so an edit lands in a fresh, empty scope.
//
// Durability model — append log:
//   header | record | record | ...
// Each record is CRC32-framed ([crc][len][payload]); payloads are
// fingerprint interns or verdicts. A corrupt, truncated, or
// version-mismatched store is *never trusted*: parsing stops at the first
// bad frame or unknown record type, the valid prefix is kept (writable
// handles truncate the bad tail away), and a bad header means "start
// empty". Every failure mode degrades to a cache miss, never to a wrong
// verdict. The file grows by one record per unique execution per scope;
// deleting it is how to reclaim the space.
//
// Concurrency model — single writer, lock-free readers:
//   - Lookup() is wait-free on the hot path: it loads an atomic
//     shared_ptr snapshot of the index. Any number of threads may call it
//     concurrently with appends.
//   - ResolveScope() and AppendBatch() serialize on an internal mutex;
//     AppendBatch publishes a fresh index snapshot (copy-on-write).
//   - Cross-process: the writer role is claimed via flock() on a sidecar
//     "<path>.lock" file. A second handle opening the same path, in this
//     process or another, gets a read-only handle (lookups work, appends
//     are dropped).
#ifndef SPEX_SUPPORT_VERDICT_STORE_H_
#define SPEX_SUPPORT_VERDICT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/support/status.h"

namespace spex {

// One cached verdict. `category` is an opaque tag owned by the caller
// (the injection layer stores ReactionCategory); the store never
// interprets it. The fields are exactly the replay-produced fields that
// re-attribution copies between suspects sharing an execution identity,
// so a stored verdict reproduces a replay bit-for-bit.
struct StoredVerdict {
  uint8_t category = 0;
  bool pinpointed = false;
  int64_t tests_run = 0;
  std::string detail;
  std::vector<std::string> logs;

  bool operator==(const StoredVerdict& other) const {
    return category == other.category && pinpointed == other.pinpointed &&
           tests_run == other.tests_run && detail == other.detail &&
           logs == other.logs;
  }
};

// One pending write for AppendBatch().
struct VerdictAppend {
  uint64_t scope_id = 0;
  std::string key;
  StoredVerdict verdict;
};

class VerdictStore {
 public:
  // Opens (creating if needed) the store at `path`. Never fails hard: the
  // returned handle is always usable — worst case it behaves as an empty
  // read-only store. `status`, when non-null, reports the first
  // degradation (writer lock held elsewhere, path unwritable, corrupt tail
  // dropped, bad header reset) or Ok for a clean open.
  static std::shared_ptr<VerdictStore> Open(const std::string& path,
                                            Status* status = nullptr);
  ~VerdictStore();

  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  // Maps a scope fingerprint (arbitrary bytes) to a dense store-local id.
  // Ids are stable across reopen for the life of the file. Thread-safe.
  uint64_t ResolveScope(std::string_view fingerprint);

  // Looks up a verdict. Lock-free; safe concurrently with appends.
  bool Lookup(uint64_t scope_id, std::string_view key, StoredVerdict* out) const;

  // Appends a batch of verdicts (last-wins on duplicate keys; a record
  // equal to the stored one is skipped) and publishes them for lookup.
  // Returns how many records were durably written — 0 on a read-only
  // handle. Serialized internally; safe from any thread.
  size_t AppendBatch(std::vector<VerdictAppend> appends);

  // fsync()s the log. Appends are otherwise buffered by the OS only.
  void Flush();

  size_t size() const;
  bool read_only() const { return !writable_; }
  const std::string& path() const { return path_; }

 private:
  // Keys are scope_id (8 bytes little-endian) + execution key bytes.
  // Values are shared so the copy-on-write index copy stays shallow.
  using Index = std::unordered_map<std::string, std::shared_ptr<const StoredVerdict>>;

  explicit VerdictStore(std::string path);

  Status OpenInternal();
  // Parses [data, data+size), filling index/fingerprints. Returns the
  // offset just past the last valid record.
  size_t LoadRecords(const char* data, size_t size, Index* index);

  const std::string path_;

  // Reader-visible snapshot; swapped wholesale by writers.
  std::atomic<std::shared_ptr<const Index>> index_;

  // Writer state, all under mutex_.
  mutable std::mutex mutex_;
  int fd_ = -1;       // Data file (O_APPEND when writable).
  int lock_fd_ = -1;  // Sidecar lock file holding the flock.
  bool writable_ = false;
  std::vector<std::string> fingerprints_;          // id -> fingerprint.
  std::unordered_map<std::string, uint64_t> fingerprint_ids_;
  size_t durable_fingerprints_ = 0;  // Prefix of fingerprints_ on disk.
};

}  // namespace spex

#endif  // SPEX_SUPPORT_VERDICT_STORE_H_
