// Simulated operating-system environment.
//
// The interpreter's system-call intrinsics run against this simulator
// instead of the real OS, so an injection campaign can make "the port is
// occupied" or "the file does not exist" true on demand — the conditions
// SPEX-INJ needs to exercise semantic-type violations (paper Figure 5).
#ifndef SPEX_OSIM_OS_SIMULATOR_H_
#define SPEX_OSIM_OS_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace spex {

class OsSimulator {
 public:
  // --- Filesystem. Paths are absolute, '/'-separated.
  void AddFile(const std::string& path, bool readable = true, bool writable = true);
  void AddDirectory(const std::string& path);
  bool FileExists(const std::string& path) const;
  bool DirectoryExists(const std::string& path) const;
  bool IsReadable(const std::string& path) const;
  bool RemoveFile(const std::string& path);

  // --- Network.
  void OccupyPort(int64_t port);
  bool PortOccupied(int64_t port) const;
  // Valid, free TCP/UDP port check: 1..65535 and not occupied.
  bool PortAvailable(int64_t port) const;
  void AddHost(const std::string& name);
  bool ResolvesHost(const std::string& name) const;
  bool IsValidIpAddress(std::string_view text) const;

  // --- Users and groups.
  void AddUser(const std::string& name);
  void AddGroup(const std::string& name);
  bool UserExists(const std::string& name) const;
  bool GroupExists(const std::string& name) const;

  // --- Memory budget for malloc/alloc_buffer.
  void set_memory_budget(int64_t bytes) { memory_budget_ = bytes; }
  int64_t memory_budget() const { return memory_budget_; }
  // Returns a non-zero handle on success, 0 on failure. Allocations are
  // charged against the budget until ResetAllocations().
  int64_t TryAllocate(int64_t bytes);
  void ResetAllocations();
  int64_t allocated_bytes() const { return allocated_bytes_; }

  // --- Virtual clock (seconds since start).
  int64_t now() const { return clock_seconds_; }
  void AdvanceClock(int64_t seconds) { clock_seconds_ += seconds; }

  // A standard environment with common paths, a user, and a resolvable
  // host — what corpus targets assume exists.
  static OsSimulator StandardEnvironment();

  // Makes this simulator state-identical to `snapshot`, skipping the
  // node-by-node container copies when a container was never mutated. An
  // injection campaign restores the same pristine environment thousands of
  // times, and most runs never touch the filesystem or user tables.
  void RestoreFrom(const OsSimulator& snapshot);

 private:
  struct FileInfo {
    bool is_directory = false;
    bool readable = true;
    bool writable = true;

    bool operator==(const FileInfo& other) const {
      return is_directory == other.is_directory && readable == other.readable &&
             writable == other.writable;
    }
  };

  std::map<std::string, FileInfo> files_;
  std::set<int64_t> occupied_ports_;
  std::set<std::string> hosts_;
  std::set<std::string> users_;
  std::set<std::string> groups_;
  int64_t memory_budget_ = 1LL << 30;  // 1 GiB default.
  int64_t allocated_bytes_ = 0;
  int64_t next_alloc_handle_ = 1;
  int64_t clock_seconds_ = 1700000000;
};

}  // namespace spex

#endif  // SPEX_OSIM_OS_SIMULATOR_H_
