// The one report encoder (src/api/report_json.h), pinned three ways:
//
//   - daemon golden: an in-process CheckServer on a ManualClock answers a
//     fixed request set, and every response body is compared byte for
//     byte with tests/golden/report_json/daemon_bodies.txt;
//   - CLI golden: the CI fleets (fleet/, the sites/ include trees, the
//     cyclefleet/ include cycle, examples/matrix) are checked in process
//     and fed to the encoders spexcheck --format jsonl uses. The goldens
//     cli_*.jsonl were recorded from spexcheck before the daemon's
//     violation record became the shared one, so every record must match
//     byte for byte except the violation objects, which must carry the
//     same members (the old ones had no "type" and an extra
//     "vulnerability");
//   - identity: for the same config, each CLI violation object equals the
//     daemon's /check violation line byte for byte.
//
// When an intended change alters the output, regenerate and review the
// diff:
//   SPEX_REGENERATE_GOLDEN=1 ./report_json_test
#include "src/api/report_json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/api/session.h"
#include "src/corpus/spec.h"
#include "src/corpus/synthesizer.h"
#include "src/serve/server.h"
#include "src/support/clock.h"

namespace spex {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(SPEX_SOURCE_DIR "/tests/golden/report_json/") + name;
}

bool Regenerating() { return std::getenv("SPEX_REGENERATE_GOLDEN") != nullptr; }

std::string ReadText(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(stream) << "cannot read " << path;
  std::ostringstream text;
  text << stream.rdbuf();
  return text.str();
}

// Compares `actual` with `golden`; on a mismatch, names the first
// differing line.
void ExpectSameText(const std::string& name, const std::string& golden,
                    const std::string& actual) {
  if (golden == actual) {
    return;
  }
  std::istringstream want(golden);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    bool more_want = static_cast<bool>(std::getline(want, want_line));
    bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) {
      ADD_FAILURE() << name << ": differs only in trailing bytes";
      return;
    }
    if (!more_want || !more_got || want_line != got_line) {
      ADD_FAILURE() << name << ":" << line << " differs\n  golden: " << want_line
                    << "\n  actual: " << got_line;
      return;
    }
  }
}

// Compares `actual` with the golden file `name`, or rewrites the file when
// regenerating.
void ExpectGolden(const std::string& name, const std::string& actual) {
  if (Regenerating()) {
    std::ofstream(GoldenPath(name), std::ios::binary) << actual;
    return;
  }
  ExpectSameText(name, ReadText(GoldenPath(name)), actual);
}

// The squid template with `param` set to `value` — the CI fleet's
// `sed 's/^param .*/param value/'`.
std::string WithSetting(const std::string& config, const std::string& param,
                        const std::string& value) {
  std::istringstream in(config);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    out += line.rfind(param + " ", 0) == 0 ? param + " " + value : line;
    out += '\n';
  }
  return out;
}

const std::string& SquidTemplate() {
  static const std::string text = SynthesizeTarget(FindTarget("squid")).template_config;
  return text;
}

std::string BobConfig() { return WithSetting(SquidTemplate(), "client_lifetime_0", "9000000000"); }

// One HTTP exchange on a fresh connection, read to EOF (close-by-default).
std::string RoundTrip(uint16_t port, const std::string& method, const std::string& target,
                      const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
                        "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) {
      ::close(fd);
    }
    return "<connect failed>";
  }
  for (size_t sent = 0; sent < request.size();) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// The daemon's fixed request set. Each entry of the golden is a
// "### <http status> <method> <target>" header followed by the body.
std::string DaemonTranscript() {
  ServerOptions options;
  options.clock = std::make_shared<ManualClock>();
  options.default_deadline = std::chrono::milliseconds(0);  // No wall-clock verdicts.
  options.per_target_replay_budget = 100;                     // Shows target_budget in /statz.
  CheckServer server(options);
  EXPECT_TRUE(server.Start().ok());

  const std::string cycle_set =
      "{\"files\":["
      "{\"name\":\"main.conf\",\"text\":\"include conf.d/a.conf\\n"
      "client_lifetime_0 9000000000\\nvisitor_greeting caf\xc3\xa9\\n\"},"
      "{\"name\":\"conf.d/a.conf\",\"text\":\"include ../main.conf\\n\"}]}";
  const std::string batch =
      "=== clean.conf\n"
      "raid.scrub.stripe_0 = 64\n"
      "=== rejected.conf\n"
      "this line has no equals sign\n";
  struct Exchange {
    const char* method;
    const char* target;
    std::string body;
  };
  const std::vector<Exchange> exchanges = {
      {"POST", "/check?target=squid&mode=static&name=fleet/bob.conf", BobConfig()},
      {"POST", "/check?target=squid&name=fleet/bob.conf", BobConfig()},
      {"POST", "/check?target=squid&name=cycle", cycle_set},
      {"POST", "/batch?target=storage_a", batch},
      {"GET", "/no/such/route", ""},
      {"GET", "/statz", ""},
  };
  std::string transcript;
  for (const Exchange& exchange : exchanges) {
    std::string response = RoundTrip(server.port(), exchange.method, exchange.target,
                                      exchange.body);
    size_t split = response.find("\r\n\r\n");
    std::string status = response.size() >= 12 ? response.substr(9, 3) : "???";
    transcript += "### " + status + " " + exchange.method + " " + exchange.target + "\n";
    transcript += split == std::string::npos ? response : response.substr(split + 4);
  }
  return transcript;
}

TEST(ReportJsonTest, DaemonBodiesMatchGolden) {
  ExpectGolden("daemon_bodies.txt", DaemonTranscript());
}

// --- JsonEscape -------------------------------------------------------

TEST(ReportJsonTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape(std::string("\n\r\t\x01\x1f\0", 6)),
            "\\n\\r\\t\\u0001\\u001f\\u0000");
  EXPECT_EQ(JsonEscape("plain ascii ~\x7f"), "plain ascii ~\x7f");
}

TEST(ReportJsonTest, PassesWellFormedUtf8Through) {
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");               // 2-byte é
  EXPECT_EQ(JsonEscape("\xe2\x82\xac 5"), "\xe2\x82\xac 5");         // 3-byte €
  EXPECT_EQ(JsonEscape("\xf0\x9f\x98\x80!"), "\xf0\x9f\x98\x80!");   // 4-byte emoji
  EXPECT_EQ(JsonEscape("\xc3\xbf"), "\xc3\xbf");                     // Real U+00FF stays raw.
}

TEST(ReportJsonTest, EscapesEveryByteOfMalformedUtf8) {
  EXPECT_EQ(JsonEscape("6\xff" "0"), "6\\u00ff0");                  // Lone 0xff.
  EXPECT_EQ(JsonEscape("\xe2\x82"), "\\u00e2\\u0082");              // Truncated at the end.
  EXPECT_EQ(JsonEscape("\xe2\x82x"), "\\u00e2\\u0082x");            // Truncated mid-text.
  EXPECT_EQ(JsonEscape("\xc0\x80"), "\\u00c0\\u0080");              // Overlong NUL.
  EXPECT_EQ(JsonEscape("\xed\xa0\x80"), "\\u00ed\\u00a0\\u0080");   // UTF-16 surrogate.
  EXPECT_EQ(JsonEscape("\xf4\x90\x80\x80"), "\\u00f4\\u0090\\u0080\\u0080");  // > U+10FFFF.
  EXPECT_EQ(JsonEscape("\x80"), "\\u0080");                         // Stray continuation.
}

// --- CLI golden ------------------------------------------------------------

// End of the JSON object opening at text[i] (flat objects: braces inside
// strings are skipped, nested objects are not expected).
size_t ObjectEnd(const std::string& text, size_t i) {
  bool in_string = false;
  for (++i; i < text.size(); ++i) {
    if (in_string) {
      if (text[i] == '\\') {
        ++i;
      } else if (text[i] == '"') {
        in_string = false;
      }
    } else if (text[i] == '"') {
      in_string = true;
    } else if (text[i] == '}') {
      return i + 1;
    }
  }
  return text.size();
}

// `jsonl` with each object of every "violations":[...] array replaced by
// {}; the objects are appended to `objects` in order.
std::string MaskViolations(const std::string& jsonl, std::vector<std::string>* objects) {
  const std::string marker = "\"violations\":[";
  std::string masked;
  size_t pos = 0;
  for (size_t at; (at = jsonl.find(marker, pos)) != std::string::npos;) {
    size_t i = at + marker.size();
    masked.append(jsonl, pos, i - pos);
    while (i < jsonl.size() && jsonl[i] == '{') {
      size_t end = ObjectEnd(jsonl, i);
      objects->push_back(jsonl.substr(i, end - i));
      masked += "{}";
      i = end;
      if (i < jsonl.size() && jsonl[i] == ',') {
        masked += ',';
        ++i;
      }
    }
    pos = i;
  }
  masked.append(jsonl, pos);
  return masked;
}

// A flat object's members as sorted (key, raw value) pairs, minus the two
// keys that tell the old CLI violation object from the shared record.
std::vector<std::pair<std::string, std::string>> Members(const std::string& object) {
  std::vector<std::pair<std::string, std::string>> members;
  auto value_end = [&](size_t i) {
    if (object[i] == '"') {
      size_t j = i + 1;
      while (j < object.size() && object[j] != '"') {
        j += object[j] == '\\' ? 2 : 1;
      }
      return j + 1;
    }
    return object.find_first_of(",}", i);
  };
  for (size_t i = 1; i < object.size() && object[i] == '"';) {
    size_t key_end = value_end(i);
    size_t end = value_end(key_end + 1);  // Skips the ':'.
    std::string key = object.substr(i + 1, key_end - i - 2);
    if (key != "type" && key != "vulnerability") {
      members.emplace_back(key, object.substr(key_end + 1, end - key_end - 1));
    }
    i = end + 1;  // Skips the ',' (or steps past the closing '}').
  }
  std::sort(members.begin(), members.end());
  return members;
}

void ExpectCliGolden(const std::string& name, const std::string& actual) {
  if (Regenerating()) {
    ExpectGolden(name, actual);
    return;
  }
  std::vector<std::string> want_objects;
  std::vector<std::string> got_objects;
  ExpectSameText(name, MaskViolations(ReadText(GoldenPath(name)), &want_objects),
                 MaskViolations(actual, &got_objects));
  ASSERT_EQ(want_objects.size(), got_objects.size()) << name;
  for (size_t i = 0; i < got_objects.size(); ++i) {
    EXPECT_EQ(got_objects[i].rfind("{\"type\":\"violation\",", 0), 0u) << got_objects[i];
    EXPECT_GE(Members(got_objects[i]).size(), 6u) << got_objects[i];  // file..message at least.
    EXPECT_EQ(Members(want_objects[i]), Members(got_objects[i]))
        << name << " violation " << i << "\n  golden: " << want_objects[i]
        << "\n  actual: " << got_objects[i];
  }
}

// What spexcheck's JSONL writers print, recorded in memory.
class JsonlRecorder : public BatchObserver, public MatrixObserver {
 public:
  std::string out;

  void OnConfigChecked(size_t index, const ConfigReport& report) override {
    AppendConfigReportJson(&out, index, report);
    out += '\n';
  }
  void OnBatchEnd(const BatchSummary& summary) override {
    AppendBatchSummaryJson(&out, summary);
    out += '\n';
  }
  void OnCellChecked(size_t version, const std::string& version_label,
                     const ConfigReport& report) override {
    AppendMatrixCellJson(&out, version, version_label, report);
    out += '\n';
  }
  void OnVersionChecked(const VersionReport& column) override {
    AppendVersionJson(&out, column);
    out += '\n';
  }
  void OnTransition(const ConfigTransition& transition) override {
    AppendTransitionJson(&out, transition);
    out += '\n';
  }
  void OnMatrixEnd(const MatrixSummary& summary) override {
    AppendMatrixSummaryJson(&out, summary);
    out += '\n';
  }
};

// spexcheck's defaults: dynamic mode, hardware threads.
BatchOptions DynamicBatch() {
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  return options;
}

Target* LoadSquid(Session* session) {
  Target* target = session->LoadTarget("squid");
  EXPECT_NE(target, nullptr);
  return target;
}

// The CI fleet: base.conf is the template, alice a clean copy, bob and
// carol carry the same seeded client_lifetime_0 mistake.
std::string FleetJsonl(Target* target) {
  const std::vector<ConfigInput> fleet = {
      {"fleet/alice.conf", SquidTemplate()},
      {"fleet/base.conf", SquidTemplate()},
      {"fleet/bob.conf", BobConfig()},
      {"fleet/carol.conf", BobConfig()},
  };
  JsonlRecorder recorder;
  target->CheckConfigBatch(fleet, DynamicBatch(), static_cast<BatchObserver*>(&recorder));
  return recorder.out;
}

// The --include-roots flow: a config_set record ahead of each report.
std::string ConfigSetsJsonl(Target* target, const std::vector<ConfigInput>& files,
                            const std::vector<std::string>& roots) {
  MemoryConfigSetSource source(files);
  std::vector<ResolvedConfigSet> sets;
  BatchSummary summary = target->CheckConfigSet(roots, source, DynamicBatch(), nullptr, &sets);
  std::string out;
  for (size_t i = 0; i < summary.reports.size(); ++i) {
    AppendConfigSetJson(&out, sets[i]);
    out += '\n';
    AppendConfigReportJson(&out, i, summary.reports[i]);
    out += '\n';
  }
  AppendBatchSummaryJson(&out, summary);
  out += '\n';
  return out;
}

const std::vector<ConfigInput>& SiteFiles() {
  static const std::vector<ConfigInput> files = {
      {"sites/site1/main.conf", SquidTemplate() + "include conf.d/override.conf\n"},
      {"sites/site1/conf.d/override.conf", "client_lifetime_0 9000000000\n"},
      {"sites/site2/main.conf", BobConfig()},
  };
  return files;
}

TEST(ReportJsonTest, CliFleetMatchesGolden) {
  Session session;
  Target* target = LoadSquid(&session);
  ASSERT_NE(target, nullptr);
  ExpectCliGolden("cli_fleet.jsonl", FleetJsonl(target));
  ExpectCliGolden("cli_sets.jsonl",
                  ConfigSetsJsonl(target, SiteFiles(),
                                  {"sites/site1/main.conf", "sites/site2/main.conf"}));
  ExpectCliGolden("cli_cycle.jsonl",
                  ConfigSetsJsonl(target, {{"cyclefleet/loop.conf", "include loop.conf\n"}},
                                  {"cyclefleet/loop.conf"}));
}

TEST(ReportJsonTest, CliMatrixMatchesGolden) {
  const std::string dir = SPEX_SOURCE_DIR "/examples/matrix/";
  std::vector<TargetVersion> versions;
  for (const char* label : {"v1", "v2"}) {
    TargetVersion version;
    version.label = label;
    version.file_name = std::string("server_") + label + ".c";
    version.source = ReadText(dir + version.file_name);
    version.annotations = ReadText(dir + "server.ann");
    version.template_config = ReadText(dir + "server.tpl");
    versions.push_back(std::move(version));
  }
  std::vector<ConfigInput> configs;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "fleet")) {
    configs.push_back(ConfigInput{"examples/matrix/fleet/" + entry.path().filename().string(),
                                  ReadText(entry.path().string())});
  }
  std::sort(configs.begin(), configs.end(),
            [](const ConfigInput& a, const ConfigInput& b) { return a.name < b.name; });
  Session session;
  JsonlRecorder recorder;
  MatrixOptions options;
  options.check.mode = CheckMode::kDynamic;
  session.CheckMatrix(versions, configs, options,
                      static_cast<MatrixObserver*>(&recorder));
  ExpectCliGolden("cli_matrix.jsonl", recorder.out);
}

// --- Identity: one violation record for both surfaces ----------------------

std::vector<std::string> DaemonViolationLines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"type\":\"violation\"", 0) == 0) {
      lines.push_back(line);
    }
  }
  return lines;
}

std::string ReportLine(const std::string& jsonl, const std::string& config) {
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"config\":\"" + config + "\"", 0) == 0) {
      return line;
    }
  }
  return "";
}

TEST(ReportJsonTest, CliViolationObjectsEqualDaemonCheckLines) {
  Session session;
  Target* target = LoadSquid(&session);
  ASSERT_NE(target, nullptr);
  ServerOptions options;
  options.default_deadline = std::chrono::milliseconds(0);
  CheckServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A flat config: fleet/bob.conf.
  std::vector<std::string> cli;
  MaskViolations(ReportLine(FleetJsonl(target), "fleet/bob.conf"), &cli);
  std::string body = RoundTrip(server.port(), "POST", "/check?target=squid&name=fleet/bob.conf",
                               BobConfig());
  std::vector<std::string> daemon = DaemonViolationLines(body);
  ASSERT_FALSE(cli.empty());
  EXPECT_EQ(cli, daemon) << body;

  // An include tree: the violation carries the override note.
  cli.clear();
  const std::vector<ConfigInput> site1(SiteFiles().begin(), SiteFiles().begin() + 2);
  MaskViolations(ReportLine(ConfigSetsJsonl(target, site1, {"sites/site1/main.conf"}),
                            "sites/site1/main.conf"),
                 &cli);
  std::string set_body = "{\"files\":[";
  for (const ConfigInput& file : site1) {
    set_body += std::string(file.name == site1.front().name ? "" : ",") + "{\"name\":\"" +
                file.name + "\",\"text\":\"" + JsonEscape(file.text) + "\"}";
  }
  set_body += "]}";
  body = RoundTrip(server.port(), "POST", "/check?target=squid&name=sites/site1/main.conf",
                   set_body);
  daemon = DaemonViolationLines(body);
  ASSERT_FALSE(cli.empty());
  EXPECT_NE(cli.front().find("\"note\":"), std::string::npos) << cli.front();
  EXPECT_EQ(cli, daemon) << body;
}

}  // namespace
}  // namespace spex
