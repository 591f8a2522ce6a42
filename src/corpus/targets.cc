// The seven evaluated systems (paper Table 4), modeled at roughly quarter
// scale. Mapping conventions follow Table 1: Storage-A / MySQL / PostgreSQL /
// VSFTP use structure tables, Apache uses a handler-command table, Squid is
// comparison-based, OpenLDAP is a hybrid. Parser strictness follows the
// paper's Section 5.2 observation: Storage-A / MySQL / PostgreSQL enforce
// types and ranges through their config tables, everyone else does ad-hoc
// parsing (atoi and friends).
#include "src/corpus/spec.h"

#include <cstdlib>
#include <iostream>

namespace spex {

namespace {

// Small builder so the spec tables below stay readable.
struct PB {
  ParamSpec p;
  PB(std::string key, std::string var, Archetype archetype) {
    p.key = std::move(key);
    p.var = std::move(var);
    p.archetype = archetype;
  }
  PB& Cnt(int n) {
    p.count = n;
    return *this;
  }
  PB& Def(int64_t v) {
    p.def_int = v;
    return *this;
  }
  PB& DefS(std::string v) {
    p.def_str = std::move(v);
    return *this;
  }
  PB& Range(int64_t lo, int64_t hi) {
    p.min = lo;
    p.max = hi;
    return *this;
  }
  PB& Cap(int64_t cap) {
    p.cap = cap;
    return *this;
  }
  PB& Fail(FailMode mode) {
    p.fail = mode;
    return *this;
  }
  PB& Master(std::string key) {
    p.master = std::move(key);
    return *this;
  }
  PB& Peer(std::string key) {
    p.peer = std::move(key);
    return *this;
  }
  PB& Enum(std::vector<std::string> values) {
    p.enum_values = std::move(values);
    return *this;
  }
  PB& Doc() {
    p.documented = true;
    return *this;
  }
  PB& Safe() {
    p.unsafe_parse = false;
    return *this;
  }
  PB& Warn() {
    p.warn_when_ignored = true;
    return *this;
  }
  operator ParamSpec() const { return p; }
};

TargetSpec StorageA() {
  TargetSpec t;
  t.name = "storage_a";
  t.display_name = "Storage-A";
  t.dialect = ConfigDialect::kKeyEqualsValue;
  t.uses_struct_table = true;
  t.table_parse = TableParseStyle::kStrictRange;
  t.table_shards = 3;
  t.params = {
      // Table-parsed knobs: strict parsing + declared ranges => good reactions.
      PB("raid.scrub.stripe", "raid_scrub_stripe", Archetype::kPlainInt).Cnt(34).Def(64),
      PB("wafl.readahead.chunk", "wafl_readahead_chunk", Archetype::kRangeTable)
          .Cnt(6)
          .Def(128)
          .Range(16, 4096)
          .Doc(),
      // Legacy options parsed by hand with sscanf/atoi: the silent-violation pool.
      PB("nfs.legacy.knob", "nfs_legacy_knob", Archetype::kStrictInt).Cnt(2).Def(4).Safe(),
      PB("cifs.compat.level", "cifs_compat_level", Archetype::kAdHocInt).Cnt(6).Def(2),
      // Resources. Units follow the Storage-A practice of suffix naming.
      PB("iscsi.data.file", "iscsi_data_file", Archetype::kFile)
          .Cnt(4)
          .Fail(FailMode::kLogContinue),
      PB("vol.backup.dir", "vol_backup_dir", Archetype::kDir)
          .Cnt(3)
          .Fail(FailMode::kExitPinpoint),
      PB("admin.notify.user", "admin_notify_user", Archetype::kUser)
          .Cnt(3)
          .Fail(FailMode::kExitPinpoint),
      PB("cluster.peer.host", "cluster_peer_host", Archetype::kHost)
          .Cnt(2)
          .Fail(FailMode::kLogContinue),
      PB("mgmt.listen.port", "mgmt_listen_port", Archetype::kPort)
          .Cnt(4)
          .Fail(FailMode::kExitPinpoint),
      PB("takeover.sec", "takeover_sec", Archetype::kTimeSecChecked).Cnt(8).Def(30).Doc(),
      PB("cleanup.msec", "cleanup_msec", Archetype::kTimeMsecChecked).Cnt(2).Def(200),
      PB("scrub.interval.min", "scrub_interval_min", Archetype::kTimeMinChecked).Cnt(3).Def(5),
      PB("flush.gap.usec", "flush_gap_usec", Archetype::kTimeUsecChecked).Cnt(1).Def(500),
      PB("pcs.size", "pcs_size", Archetype::kSizeBytes)
          .Cnt(5)
          .Def(65536)
          .Fail(FailMode::kExitPinpoint),
      PB("nvram.reserve.kb", "nvram_reserve_kb", Archetype::kSizeKbScaled)
          .Cnt(1)
          .Def(512)
          .Fail(FailMode::kExitPinpoint),
      // Feature toggles and their dependents: the silent-ignorance pool.
      PB("cf.mode", "cf_mode", Archetype::kBoolReject).Def(1),
      PB("dedup.enable", "dedup_enable", Archetype::kBoolReject).Def(1),
      PB("mirror.enable", "mirror_enable", Archetype::kBoolReject).Def(1),
      PB("cf.giveback.delay", "cf_giveback_delay", Archetype::kDependent)
          .Cnt(7)
          .Def(15)
          .Master("cf.mode"),
      PB("dedup.chunk.hint", "dedup_chunk_hint", Archetype::kDependent)
          .Cnt(7)
          .Def(9)
          .Master("dedup.enable"),
      PB("mirror.stripe.hint", "mirror_stripe_hint", Archetype::kDependent)
          .Cnt(6)
          .Def(3)
          .Master("mirror.enable"),
      // Enumerations.
      PB("lun.ostype", "lun_ostype", Archetype::kEnumInsensitive)
          .Cnt(8)
          .Enum({"linux", "windows", "vmware"}),
      PB("security.style", "security_style", Archetype::kEnumSensitive)
          .Cnt(2)
          .Enum({"unix", "ntfs", "mixed"}),
      // Relationships.
      PB("quota.soft.limit", "quota_soft_limit", Archetype::kRelPairChecked)
          .Cnt(3)
          .Def(4)
          .Peer("quota.hard.limit")
          .Doc(),
      PB("quota.hard.limit", "quota_hard_limit", Archetype::kPlainInt).Def(84),
      PB("cache.low.water", "cache_low_water", Archetype::kRelPair)
          .Cnt(2)
          .Def(4)
          .Peer("cache.high.water"),
      PB("cache.high.water", "cache_high_water", Archetype::kPlainInt).Def(84),
      // Aliasing pairs (accuracy degradation).
      PB("fcp.queue.depth", "fcp_queue_depth", Archetype::kAliasPair)
          .Cnt(3)
          .Def(8)
          .Range(0, 256)
          .Peer("fcp.queue.reserve"),
      PB("fcp.queue.reserve", "fcp_queue_reserve", Archetype::kPlainInt).Def(8),
      PB("ndmp.backup.name", "ndmp_backup_name", Archetype::kPlainString).Cnt(8),
  };
  return t;
}

TargetSpec Apache() {
  TargetSpec t;
  t.name = "apache";
  t.display_name = "Apache";
  t.dialect = ConfigDialect::kKeyValue;
  t.uses_struct_table = false;
  t.uses_handler_table = true;
  t.params = {
      PB("KeepAliveRequests", "keepalive_requests", Archetype::kPlainInt).Cnt(2).Def(100),
      PB("ServerAliasText", "server_alias_text", Archetype::kPlainString).Cnt(3),
      PB("ServerSignatureText", "server_signature_text", Archetype::kPlainString).Cnt(3),
      PB("ThreadLimit", "thread_limit", Archetype::kSizeBytes)
          .Def(4096)
          .Fail(FailMode::kExitMisleading),  // Figure 7(b): scoreboard alloc abort.
      PB("MaxMemFree", "max_mem_free", Archetype::kSizeKbScaled)
          .Def(2048)
          .Fail(FailMode::kExitPinpoint),  // Figure 6(b): the KB outlier.
      PB("ListenPort", "listen_port", Archetype::kPort).Fail(FailMode::kExitPinpoint),
      PB("DocumentRoot", "document_root", Archetype::kDir).Fail(FailMode::kSilentSkip),
      PB("ErrorLogFile", "error_log_file", Archetype::kFile).Fail(FailMode::kSilentSkip),
      PB("UserName", "user_name", Archetype::kUser).Fail(FailMode::kExitNoMsg),
      PB("TimeoutSec", "timeout_sec", Archetype::kTimeSec).Cnt(3).Def(60),
      PB("WorkerSlots", "worker_slots", Archetype::kCrashArrayCount).Def(8).Cap(16),
      PB("HostnameLookups", "hostname_lookups", Archetype::kBoolSilent),
      PB("ExtendedStatus", "extended_status", Archetype::kBoolReject).Def(1),
      PB("LogLevelName", "log_level_name", Archetype::kEnumSensitive)
          .Cnt(3)
          .Enum({"debug", "info", "warn", "error"}),
      PB("StatusRefreshSec", "status_refresh_sec", Archetype::kDependent)
          .Def(10)
          .Master("ExtendedStatus"),
      PB("MinSpareServers", "min_spare_servers", Archetype::kRelPair)
          .Def(4)
          .Peer("MaxSpareServers")
          .Doc(),
      PB("MaxSpareServers", "max_spare_servers", Archetype::kPlainInt).Def(84),
      PB("SendBufferSize", "send_buffer_size", Archetype::kRangeCheckPinpoint)
          .Def(8192)
          .Range(512, 1048576)
          .Doc(),
  };
  return t;
}

TargetSpec MySql() {
  TargetSpec t;
  t.name = "mysql";
  t.display_name = "MySQL";
  t.dialect = ConfigDialect::kKeyEqualsValue;
  t.uses_struct_table = true;
  t.table_parse = TableParseStyle::kStrictRange;
  t.table_shards = 9;  // Many per-module option tables: the LoA = 29 effect.
  t.params = {
      PB("net_retry_count", "net_retry_count", Archetype::kPlainInt).Cnt(18).Def(10),
      PB("innodb_io_capacity", "innodb_io_capacity", Archetype::kRangeTable)
          .Cnt(8)
          .Def(200)
          .Range(100, 100000)
          .Doc(),
      // Ad-hoc parsed legacy options: MySQL's silent-violation pool.
      PB("myisam_block_size", "myisam_block_size", Archetype::kPlainInt).Cnt(6).Def(1024),
      PB("ft_stopword_file", "ft_stopword_file", Archetype::kFile)
          .Fail(FailMode::kSilentSkip),  // Figure 3(b)/5(b).
      PB("tmp_dir", "tmp_dir", Archetype::kDir).Fail(FailMode::kExitPinpoint),
      PB("run_as_user", "run_as_user", Archetype::kUser).Fail(FailMode::kExitNoMsg),
      PB("report_host", "report_host", Archetype::kHost).Fail(FailMode::kSilentSkip),
      PB("mysql_port", "mysql_port", Archetype::kPort).Fail(FailMode::kExitPinpoint),
      PB("wait_timeout", "wait_timeout", Archetype::kTimeSec).Def(30),
      PB("net_read_timeout", "net_read_timeout", Archetype::kTimeSecChecked).Def(30).Doc(),
      PB("flush_time", "flush_time", Archetype::kTimeSecChecked).Cnt(3).Def(10).Doc(),
      PB("lock_poll_usec", "lock_poll_usec", Archetype::kTimeUsec).Cnt(2).Def(500),
      PB("key_buffer_size", "key_buffer_size", Archetype::kSizeBytes)
          .Cnt(4)
          .Def(8192)
          .Fail(FailMode::kExitPinpoint),
      // performance_schema sizing: division by the configured value (the
      // Figure 7(a) crash with `..._history_size = 0`).
      PB("perf_events_history_size", "perf_events_history_size", Archetype::kDivisorInt)
          .Def(8),
      PB("thread_stack_slots", "thread_stack_slots", Archetype::kCrashArrayCount)
          .Def(8)
          .Cap(16),
      PB("innodb_file_format_check", "innodb_file_format_check", Archetype::kEnumSensitive)
          .Enum({"Barracuda", "Antelope"}),  // Figure 6(a): the case-sensitive outlier.
      PB("concurrency_mode", "concurrency_mode", Archetype::kEnumInsensitive)
          .Cnt(6)
          .Enum({"none", "classic", "adaptive"}),
      PB("sync_binlog_enable", "sync_binlog_enable", Archetype::kBoolReject).Def(1),
      PB("binlog_expire_days", "binlog_expire_days", Archetype::kDependent)
          .Cnt(4)
          .Def(7)
          .Master("sync_binlog_enable"),
      PB("ft_min_word_len", "ft_min_word_len", Archetype::kRelPair)
          .Def(4)
          .Peer("ft_max_word_len"),  // Figure 3(f)/5(f).
      PB("ft_max_word_len", "ft_max_word_len", Archetype::kPlainInt).Def(84),
      PB("sort_buffer_ratio", "sort_buffer_ratio", Archetype::kRelPairChecked)
          .Def(4)
          .Peer("join_buffer_ratio")
          .Doc(),
      PB("join_buffer_ratio", "join_buffer_ratio", Archetype::kPlainInt).Def(84),
      PB("innodb_old_blocks_pct", "innodb_old_blocks_pct", Archetype::kAliasPair)
          .Def(37)
          .Range(5, 95)
          .Peer("innodb_old_blocks_time"),
      PB("innodb_old_blocks_time", "innodb_old_blocks_time", Archetype::kPlainInt).Def(37),
      PB("slow_query_log_name", "slow_query_log_name", Archetype::kPlainString).Cnt(4),
  };
  return t;
}

TargetSpec PostgreSql() {
  TargetSpec t;
  t.name = "postgresql";
  t.display_name = "PostgreSQL";
  t.dialect = ConfigDialect::kKeyEqualsValue;
  t.uses_struct_table = true;
  t.table_parse = TableParseStyle::kStrictRange;
  t.table_shards = 3;
  t.params = {
      PB("deadlock_timeout", "deadlock_timeout", Archetype::kRangeTable)
          .Cnt(10)
          .Def(1000)
          .Range(1, 600000)
          .Doc(),
      PB("max_wal_senders", "max_wal_senders", Archetype::kPlainInt).Cnt(14).Def(10),
      PB("data_directory", "data_directory", Archetype::kDir).Fail(FailMode::kExitPinpoint),
      PB("ident_file", "ident_file", Archetype::kFile).Fail(FailMode::kExitPinpoint),
      PB("pg_port", "pg_port", Archetype::kPort).Fail(FailMode::kExitPinpoint),
      PB("archive_host", "archive_host", Archetype::kHost).Fail(FailMode::kExitNoMsg),
      PB("statement_timeout", "statement_timeout", Archetype::kTimeMsec).Def(200),
      PB("lock_timeout", "lock_timeout", Archetype::kTimeMsecChecked).Cnt(2).Def(200).Doc(),
      PB("checkpoint_warning", "checkpoint_warning", Archetype::kTimeSecChecked)
          .Cnt(2)
          .Def(30)
          .Doc(),
      PB("shared_buffer_bytes", "shared_buffer_bytes", Archetype::kSizeBytes)
          .Def(65536)
          .Fail(FailMode::kExitPinpoint),
      PB("wal_segment_kb", "wal_segment_kb", Archetype::kSizeKbScaled)
          .Def(1024)
          .Fail(FailMode::kExitPinpoint),
      PB("log_statement_kind", "log_statement_kind", Archetype::kEnumInsensitive)
          .Cnt(8)
          .Enum({"none", "ddl", "mod", "all"}),
      PB("enable_fsync", "enable_fsync", Archetype::kBoolReject).Def(1),
      PB("archive_mode", "archive_mode", Archetype::kBoolReject).Def(1),
      // The Figure 3(e) dependency plus PostgreSQL's silent-ignorance pool.
      PB("commit_siblings", "commit_siblings", Archetype::kDependent)
          .Cnt(5)
          .Def(5)
          .Master("enable_fsync"),
      PB("archive_timeout", "archive_timeout", Archetype::kDependent)
          .Cnt(4)
          .Def(60)
          .Master("archive_mode"),
      PB("bgwriter_lru_maxpages", "bgwriter_lru_maxpages", Archetype::kRelPairChecked)
          .Def(4)
          .Peer("bgwriter_lru_budget")
          .Doc(),
      PB("bgwriter_lru_budget", "bgwriter_lru_budget", Archetype::kPlainInt).Def(84),
      PB("vacuum_cost_delay", "vacuum_cost_delay", Archetype::kAliasPair)
          .Def(10)
          .Range(0, 100)
          .Peer("vacuum_cost_limit"),
      PB("vacuum_cost_limit", "vacuum_cost_limit", Archetype::kPlainInt).Def(10),
      PB("cluster_name_text", "cluster_name_text", Archetype::kPlainString).Cnt(2),
  };
  return t;
}

TargetSpec OpenLdap() {
  TargetSpec t;
  t.name = "openldap";
  t.display_name = "OpenLDAP";
  t.dialect = ConfigDialect::kKeyValue;
  t.uses_struct_table = true;  // Hybrid: table + hand-written comparisons.
  t.table_parse = TableParseStyle::kStrictRange;
  t.params = {
      PB("sizelimit", "sizelimit", Archetype::kPlainInt).Cnt(4).Def(500),
      // Figure 2: listener-threads crashes above a hard-coded cap of 16.
      PB("listener-threads", "listener_threads", Archetype::kCrashArrayCount).Def(8).Cap(16),
      // Figure 3(d): index_intlen silently clamped to [4, 255].
      PB("index_intlen", "index_intlen", Archetype::kRangeClampSilent).Def(4).Range(4, 255),
      PB("sockbuf_max_incoming", "sockbuf_max_incoming", Archetype::kRangeCheckExit)
          .Def(262144)
          .Range(1, 4194304),
      PB("ldap_port", "ldap_port", Archetype::kPort).Fail(FailMode::kExitMisleading),
      PB("database_directory", "database_directory", Archetype::kDir)
          .Fail(FailMode::kSilentSkip),
      PB("tls_certificate_file", "tls_certificate_file", Archetype::kFile)
          .Cnt(2)
          .Fail(FailMode::kSilentSkip),
      PB("run_as_user", "ldap_run_as_user", Archetype::kUser).Fail(FailMode::kExitNoMsg),
      PB("idletimeout", "idletimeout", Archetype::kTimeSec).Cnt(2).Def(30),
      PB("cachesize_bytes", "cachesize_bytes", Archetype::kSizeBytes)
          .Def(32768)
          .Fail(FailMode::kExitNoMsg),
      PB("schemacheck", "schemacheck", Archetype::kBoolReject).Def(1),
      PB("syncrepl_retry", "syncrepl_retry", Archetype::kDependent)
          .Cnt(2)
          .Def(60)
          .Master("schemacheck"),
      // Heavy aliasing: the reason OpenLDAP has the worst accuracy (Table 12).
      PB("threads_active", "threads_active", Archetype::kAliasPair)
          .Cnt(3)
          .Def(8)
          .Range(0, 64)
          .Peer("threads_reserve"),
      PB("threads_reserve", "threads_reserve", Archetype::kPlainInt).Def(8),
      PB("rootdn_text", "rootdn_text", Archetype::kPlainString).Cnt(2),
  };
  return t;
}

TargetSpec Vsftp() {
  TargetSpec t;
  t.name = "vsftpd";
  t.display_name = "VSFTP";
  t.dialect = ConfigDialect::kKeyEqualsValue;
  t.uses_struct_table = true;
  t.table_parse = TableParseStyle::kStrictRange;
  t.params = {
      PB("accept_timeout", "accept_timeout", Archetype::kAdHocInt).Cnt(2).Def(60),
      PB("connect_retry_count", "connect_retry_count", Archetype::kPlainInt).Cnt(3).Def(3),
      // Hand-parsed options with atoi/sscanf: unsafe pool.
      PB("max_clients", "max_clients", Archetype::kStrictInt).Cnt(2).Def(64).Safe(),
      PB("pasv_min_port", "pasv_min_port", Archetype::kRelPair)
          .Def(4)
          .Peer("pasv_max_port"),
      PB("pasv_max_port", "pasv_max_port", Archetype::kPlainInt).Def(84),
      PB("listen_port", "ftp_listen_port", Archetype::kPort).Fail(FailMode::kExitNoMsg),
      PB("anon_root", "anon_root", Archetype::kDir).Cnt(2).Fail(FailMode::kSilentSkip),
      PB("banner_file", "banner_file", Archetype::kFile).Cnt(2).Fail(FailMode::kSilentSkip),
      PB("ftp_username", "ftp_username", Archetype::kUser)
          .Cnt(2)
          .Fail(FailMode::kExitNoMsg),
      PB("chown_user", "chown_user", Archetype::kUser).Fail(FailMode::kSilentSkip),
      PB("data_timeout", "data_timeout", Archetype::kTimeSec).Cnt(2).Def(30),
      PB("delay_poll_usec", "delay_poll_usec", Archetype::kTimeUsec).Def(500),
      PB("xfer_buffer", "xfer_buffer", Archetype::kSizeBytes)
          .Def(16384)
          .Fail(FailMode::kSilentSkip),  // Unchecked alloc: crash.
      PB("session_slots", "session_slots", Archetype::kCrashArrayCount).Def(8).Cap(16),
      PB("retry_spin", "retry_spin", Archetype::kHangLoop).Def(8),
      // The big boolean surface VSFTP is known for, plus its dependents: the
      // virtual_use_local_privs example of Figure 7(e).
      PB("listen_ipv4", "listen_ipv4", Archetype::kBoolReject).Def(1),
      PB("guest_enable", "guest_enable", Archetype::kBoolReject).Def(1),
      PB("virtual_use_local_privs", "virtual_use_local_privs", Archetype::kDependent)
          .Cnt(9)
          .Def(1)
          .Master("guest_enable"),
      PB("guest_username_alt", "guest_username_alt", Archetype::kDependent)
          .Cnt(8)
          .Def(3)
          .Master("listen_ipv4"),
      PB("ftpd_banner_text", "ftpd_banner_text", Archetype::kPlainString).Cnt(2),
  };
  return t;
}

TargetSpec Squid() {
  TargetSpec t;
  t.name = "squid";
  t.display_name = "Squid";
  t.dialect = ConfigDialect::kKeyValue;
  t.uses_struct_table = false;
  t.uses_comparison = true;
  t.params = {
      // Everything is hand-parsed with atoi: the silent-violation champion.
      PB("client_lifetime", "client_lifetime", Archetype::kPlainInt).Cnt(4).Def(60),
      PB("shutdown_lifetime", "shutdown_lifetime", Archetype::kStrictInt).Cnt(4).Def(30).Safe(),
      PB("visible_hostname", "visible_hostname", Archetype::kPlainString).Cnt(11),
      // Figure 6(c): boolean parameters that silently treat anything but
      // "on" as off.
      PB("memory_pools", "memory_pools", Archetype::kBoolSilent).Cnt(6).Def(1),
      PB("cache_replacement", "cache_replacement", Archetype::kEnumSensitive)
          .Cnt(6)
          .Enum({"lru", "heap", "clock"}),
      PB("http_port", "squid_http_port", Archetype::kPort).Fail(FailMode::kSilentSkip),
      // Figure 5(c): the misleading "FATAL: Cannot open ICP Port".
      PB("udp_port", "udp_port", Archetype::kPort).Fail(FailMode::kExitMisleading),
      PB("pid_filename", "pid_filename", Archetype::kFile).Cnt(2).Fail(FailMode::kSilentSkip),
      PB("coredump_dir", "coredump_dir", Archetype::kDir).Fail(FailMode::kSilentSkip),
      PB("cache_effective_user", "cache_effective_user", Archetype::kUser)
          .Fail(FailMode::kExitPinpoint),
      PB("dns_nameserver", "dns_nameserver", Archetype::kHost).Fail(FailMode::kSilentSkip),
      PB("connect_timeout", "connect_timeout", Archetype::kTimeSec).Cnt(2).Def(30),
      PB("dns_retransmit_msec", "dns_retransmit_msec", Archetype::kTimeMsec).Cnt(2).Def(200),
      PB("cache_mem_bytes", "cache_mem_bytes", Archetype::kSizeBytes)
          .Cnt(3)
          .Def(65536)
          .Fail(FailMode::kExitPinpoint),
      PB("max_mem_free_kb", "max_mem_free_kb", Archetype::kSizeKbScaled)
          .Def(512)
          .Fail(FailMode::kExitPinpoint),
      PB("store_objects_per_bucket", "store_objects_per_bucket", Archetype::kDivisorInt)
          .Def(8),
      PB("request_buffer_len", "request_buffer_len", Archetype::kRangeClampSilent)
          .Cnt(2)
          .Def(4096)
          .Range(512, 65536),
      PB("redirect_children", "redirect_children", Archetype::kHangLoop).Def(5),
      PB("icp_query_timeout", "icp_query_timeout", Archetype::kDependent)
          .Cnt(4)
          .Def(5)
          .Master("memory_pools_0"),
      PB("cache_swap_low", "cache_swap_low", Archetype::kRelPair)
          .Cnt(2)
          .Def(4)
          .Peer("cache_swap_high"),
      PB("cache_swap_high", "cache_swap_high", Archetype::kPlainInt).Def(84),
      PB("fqdn_cache_size", "fqdn_cache_size", Archetype::kAliasPair)
          .Def(1024)
          .Range(0, 16384)
          .Peer("ipcache_size"),
      PB("ipcache_size", "ipcache_size", Archetype::kPlainInt).Def(1024),
  };
  return t;
}

}  // namespace

std::vector<TargetSpec> EvaluatedTargets() {
  return {StorageA(), Apache(), MySql(), PostgreSql(), OpenLdap(), Vsftp(), Squid()};
}

const TargetSpec* LookupTarget(std::string_view name) {
  static const std::vector<TargetSpec>* kTargets =
      new std::vector<TargetSpec>(EvaluatedTargets());
  for (const TargetSpec& target : *kTargets) {
    if (target.name == name) {
      return &target;
    }
  }
  return nullptr;
}

const TargetSpec& FindTarget(const std::string& name) {
  const TargetSpec* target = LookupTarget(name);
  if (target == nullptr) {
    std::cerr << "unknown corpus target: " << name << "\n";
    std::abort();
  }
  return *target;
}

}  // namespace spex
