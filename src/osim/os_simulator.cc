#include "src/osim/os_simulator.h"

#include "src/support/strings.h"

namespace spex {

void OsSimulator::AddFile(const std::string& path, bool readable, bool writable) {
  files_[path] = FileInfo{false, readable, writable};
}

void OsSimulator::AddDirectory(const std::string& path) {
  files_[path] = FileInfo{true, true, true};
}

bool OsSimulator::FileExists(const std::string& path) const {
  auto it = files_.find(path);
  return it != files_.end() && !it->second.is_directory;
}

bool OsSimulator::DirectoryExists(const std::string& path) const {
  auto it = files_.find(path);
  return it != files_.end() && it->second.is_directory;
}

bool OsSimulator::IsReadable(const std::string& path) const {
  auto it = files_.find(path);
  return it != files_.end() && it->second.readable;
}

bool OsSimulator::RemoveFile(const std::string& path) { return files_.erase(path) > 0; }

void OsSimulator::OccupyPort(int64_t port) { occupied_ports_.insert(port); }

bool OsSimulator::PortOccupied(int64_t port) const { return occupied_ports_.count(port) > 0; }

bool OsSimulator::PortAvailable(int64_t port) const {
  return port >= 1 && port <= 65535 && !PortOccupied(port);
}

void OsSimulator::AddHost(const std::string& name) { hosts_.insert(name); }

bool OsSimulator::ResolvesHost(const std::string& name) const {
  return hosts_.count(name) > 0 || IsValidIpAddress(name);
}

bool OsSimulator::IsValidIpAddress(std::string_view text) const {
  auto parts = SplitString(text, '.');
  if (parts.size() != 4) {
    return false;
  }
  for (const std::string& part : parts) {
    auto value = ParseInt64(part);
    if (!value.has_value() || *value < 0 || *value > 255) {
      return false;
    }
  }
  return true;
}

void OsSimulator::AddUser(const std::string& name) { users_.insert(name); }
void OsSimulator::AddGroup(const std::string& name) { groups_.insert(name); }
bool OsSimulator::UserExists(const std::string& name) const { return users_.count(name) > 0; }
bool OsSimulator::GroupExists(const std::string& name) const { return groups_.count(name) > 0; }

int64_t OsSimulator::TryAllocate(int64_t bytes) {
  if (bytes <= 0 || bytes > memory_budget_ - allocated_bytes_) {
    return 0;
  }
  allocated_bytes_ += bytes;
  return next_alloc_handle_++;
}

void OsSimulator::ResetAllocations() {
  allocated_bytes_ = 0;
  next_alloc_handle_ = 1;
}

void OsSimulator::RestoreFrom(const OsSimulator& snapshot) {
  if (files_ != snapshot.files_) {
    files_ = snapshot.files_;
  }
  if (occupied_ports_ != snapshot.occupied_ports_) {
    occupied_ports_ = snapshot.occupied_ports_;
  }
  if (hosts_ != snapshot.hosts_) {
    hosts_ = snapshot.hosts_;
  }
  if (users_ != snapshot.users_) {
    users_ = snapshot.users_;
  }
  if (groups_ != snapshot.groups_) {
    groups_ = snapshot.groups_;
  }
  memory_budget_ = snapshot.memory_budget_;
  allocated_bytes_ = snapshot.allocated_bytes_;
  next_alloc_handle_ = snapshot.next_alloc_handle_;
  clock_seconds_ = snapshot.clock_seconds_;
}

OsSimulator OsSimulator::StandardEnvironment() {
  OsSimulator os;
  os.AddDirectory("/");
  os.AddDirectory("/etc");
  os.AddDirectory("/var");
  os.AddDirectory("/var/log");
  os.AddDirectory("/var/run");
  os.AddDirectory("/var/www");
  os.AddDirectory("/srv/data");
  os.AddDirectory("/tmp");
  os.AddFile("/etc/stopwords.txt");
  os.AddFile("/etc/mime.types");
  os.AddFile("/etc/ssl.pem");
  os.AddFile("/var/log/server.log");
  os.AddFile("/etc/secret.key", /*readable=*/false, /*writable=*/false);
  os.AddUser("root");
  os.AddUser("daemon");
  os.AddUser("www-data");
  os.AddGroup("root");
  os.AddGroup("www-data");
  os.AddHost("localhost");
  os.AddHost("db.internal");
  os.OccupyPort(22);    // sshd
  os.OccupyPort(5432);  // another service
  return os;
}

}  // namespace spex
