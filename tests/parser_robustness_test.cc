// Malformed-input robustness for the multi-file resolution boundary:
// truncated include directives, self-includes, deep nesting, include
// bombs, non-UTF8 bytes, megabyte-long lines, and hostile /check JSON
// bodies. The bar everywhere is containment — a clean error record or
// kInvalidArgument, never a crash, never an unbounded expansion. Runs
// under TSan in scripts/smoke.sh alongside the serve suites.
//
// The ParserHarnessTest suites generate their inputs from a DeterministicRng.
// Under --gtest_shuffle it is seeded from gtest's random seed, otherwise
// from 0: ctest runs one fixed input set, and scripts/soak.sh varies it
// with --gtest_shuffle --gtest_random_seed=N --gtest_repeat=M.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/batch_check.h"
#include "src/api/report_json.h"
#include "src/api/config_set.h"
#include "src/api/session.h"
#include "src/confgen/config_file.h"
#include "src/serve/http.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace spex {
namespace {

size_t CountErrors(const ResolvedConfigSet& set, ConfigSetError::Kind kind) {
  size_t count = 0;
  for (const ConfigSetError& error : set.errors) {
    if (error.kind == kind) {
      ++count;
    }
  }
  return count;
}

TEST(ParserRobustnessTest, TruncatedIncludeDirectivesAreContained) {
  // An include with no operand (truncated mid-edit) in both spellings.
  for (const char* text : {"a = 1\ninclude\nb = 2\n", "a = 1\ninclude \nb = 2\n",
                           "a = 1\ninclude =\nb = 2\n", "a = 1\ninclude \"\"\nb = 2\n"}) {
    std::vector<ConfigInput> files = {{"root.conf", text}};
    ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
    ASSERT_TRUE(set.resolved()) << text;
    EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kMissingInclude), 1u) << text;
    // The settings around the broken directive survive.
    EXPECT_EQ(set.effective.Get("a"), "1") << text;
    EXPECT_EQ(set.effective.Get("b"), "2") << text;
  }
}

TEST(ParserRobustnessTest, SelfIncludeIsASingleCycleError) {
  std::vector<ConfigInput> files = {{"me.conf", "a = 1\ninclude me.conf\nb = 2\n"}};
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  ASSERT_EQ(set.errors.size(), 1u);
  EXPECT_EQ(set.errors[0].kind, ConfigSetError::Kind::kIncludeCycle);
  EXPECT_EQ(set.errors[0].file, "me.conf");
  EXPECT_EQ(set.errors[0].line, 2u);
  EXPECT_EQ(set.effective.Get("b"), "2");
}

TEST(ParserRobustnessTest, EightDeepNestingResolvesAndTooDeepIsContained) {
  // f0 -> f1 -> ... -> f8: eight levels of include, all legal.
  std::vector<ConfigInput> files;
  for (int i = 0; i <= 8; ++i) {
    std::string text = "depth" + std::to_string(i) + " = " + std::to_string(i) + "\n";
    if (i < 8) {
      text += "include f" + std::to_string(i + 1) + ".conf\n";
    }
    files.push_back(ConfigInput{"f" + std::to_string(i) + ".conf", text});
  }
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_TRUE(set.errors.empty());
  EXPECT_EQ(set.files_resolved, 9u);
  EXPECT_EQ(set.effective.Get("depth8"), "8");

  // A chain deeper than max_include_depth stops with one error record and
  // keeps everything above the cut.
  files.clear();
  for (int i = 0; i <= 20; ++i) {
    std::string text = "depth" + std::to_string(i) + " = " + std::to_string(i) + "\n";
    if (i < 20) {
      text += "include f" + std::to_string(i + 1) + ".conf\n";
    }
    files.push_back(ConfigInput{"f" + std::to_string(i) + ".conf", text});
  }
  set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kDepthExceeded), 1u);
  EXPECT_LT(set.files_resolved, files.size());
  EXPECT_EQ(set.effective.Get("depth16"), "16");
}

TEST(ParserRobustnessTest, IncludeBombStopsAtTheFileCapWithOneRecord) {
  // A wide fan-out behind a small cap: expansion must stop, not flood.
  std::vector<ConfigInput> files;
  std::string root_text;
  for (int i = 0; i < 64; ++i) {
    root_text += "include leaf" + std::to_string(i) + ".conf\n";
  }
  files.push_back(ConfigInput{"root.conf", root_text});
  for (int i = 0; i < 64; ++i) {
    files.push_back(
        ConfigInput{"leaf" + std::to_string(i) + ".conf", "k" + std::to_string(i) + " = 1\n"});
  }
  ConfigSetOptions options;
  options.max_files = 8;
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue, options);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.files_resolved, 8u);
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kTooManyFiles), 1u);
  EXPECT_EQ(set.errors.size(), 1u);  // One record, not one per stopped leaf.
}

TEST(ParserRobustnessTest, NonUtf8BytesFlowThroughWithoutCrashing) {
  std::string text = "normal = 1\n";
  text += "bin\xFF\x80key = va\xFElue\n";
  text += "include \xC0\xC1.conf\n";  // Missing include named in garbage bytes.
  std::vector<ConfigInput> files = {{"root.conf", text}};
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.effective.Get("normal"), "1");
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kMissingInclude), 1u);
  EXPECT_TRUE(set.effective.Get("bin\xFF\x80key").has_value());
}

TEST(ParserRobustnessTest, MegabyteLineIsParsedNotChoked) {
  std::string huge(1 << 20, 'x');
  std::string text = "big = " + huge + "\ninclude tail.conf\n";
  std::vector<ConfigInput> files = {
      {"root.conf", std::move(text)},
      {"tail.conf", "after = 1\n"},
  };
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  ASSERT_TRUE(set.effective.Get("big").has_value());
  EXPECT_EQ(set.effective.Get("big")->size(), huge.size());
  EXPECT_EQ(set.effective.Get("after"), "1");
}

TEST(ParserRobustnessTest, HostileJsonBodiesAreCleanInvalidArgument) {
  ConfigSetInput input;
  std::vector<std::string> bodies = {
      std::string(1 << 20, '['),                      // A megabyte of nesting.
      std::string(1 << 20, '{'),
      "{\"files\":[" + std::string(4096, '{') + "]}",
      "{\"files\":[{\"name\":\"a\",\"text\":\"" + std::string(64, '\\'),  // Truncated escapes.
      "{\"files\":[{\"name\":\"a\",\"text\":\"\\u00",                     // Truncated \u.
      "{\"files\":[{\"name\":\"a\",\"text\":\"\\uZZZZ\"}]}",
      "{\"files\":[{\"name\":\"a\",\"text\":\"x\"}",  // Unclosed object.
  };
  // Embedded NUL inside a string: bytes pass through or the body is
  // rejected — both contained.
  std::string nul_body = "{\"files\":[{\"name\":\"a";
  nul_body.push_back('\0');
  nul_body += "b\",\"text\":\"x\"}]}";
  bodies.push_back(std::move(nul_body));
  for (const std::string& body : bodies) {
    Status status = ParseConfigSetJson(body, &input);
    // Either rejected outright or (NUL case) parsed into plain bytes —
    // never a crash, never an unbounded loop.
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
  // A body that is pure binary noise.
  std::string noise;
  for (int i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<char>(i * 37));
  }
  EXPECT_EQ(ParseConfigSetJson(noise, &input).code(), StatusCode::kInvalidArgument);
}

TEST(ParserRobustnessTest, MalformedTreesCheckEndToEndWithoutCrashing) {
  constexpr const char* kTinySource = R"(
    int depth = 1;
    int started = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcmp(key, "depth")) { depth = atoi(value); }
      return 0;
    }
    int server_init() { started = 1; return 0; }
    int test_started() { return started; }
  )";
  Session session;
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  sut.param_storage["depth"] = "depth";
  Target* target = session.LoadSource(kTinySource, "", "tiny.c",
                                      ConfigDialect::kKeyEqualsValue, sut, "depth = 1\n");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();

  std::vector<ConfigSetInput> sets(4);
  sets[0].files = {{"self.conf", "include self.conf\ndepth = 2\n"}};
  sets[1].files = {{"trunc.conf", "include\ndepth = 3\n"}};
  sets[2].files = {{"bin.conf", "depth = \xFF\xFE\n"}};
  sets[3].files = {{"huge.conf", "depth = " + std::string(1 << 20, '9') + "\n"}};
  std::vector<ResolvedConfigSet> resolutions;
  BatchSummary summary = target->CheckConfigSet(sets, {}, nullptr, &resolutions);
  ASSERT_EQ(summary.reports.size(), 4u);
  for (const ConfigReport& report : summary.reports) {
    EXPECT_TRUE(report.status.ok()) << report.name;  // Contained, not failed.
  }
  EXPECT_EQ(CountErrors(resolutions[0], ConfigSetError::Kind::kIncludeCycle), 1u);
  EXPECT_EQ(CountErrors(resolutions[1], ConfigSetError::Kind::kMissingInclude), 1u);
}

// --- Seeded generative harnesses.

int GtestSeed() {
  return ::testing::GTEST_FLAG(shuffle) ? ::testing::UnitTest::GetInstance()->random_seed() : 0;
}

uint64_t HarnessSeed(uint64_t salt) { return salt ^ static_cast<uint64_t>(GtestSeed()); }

constexpr size_t kHarnessMaxBody = 4096;

// What one HttpParser made of a byte stream.
struct HttpOutcome {
  HttpParser::State state = HttpParser::State::kNeedMore;
  HttpRequest request;  // kComplete only.
  Status error;         // kError only.
};

// Feeds `wire` to a fresh parser in chunks that end at each of `cuts`
// (ascending offsets) and at the end of the input.
HttpOutcome FeedHttp(std::string_view wire, const std::vector<size_t>& cuts) {
  HttpParser parser(kHarnessMaxBody);
  size_t start = 0;
  for (size_t cut : cuts) {
    parser.Consume(wire.data() + start, cut - start);
    start = cut;
  }
  parser.Consume(wire.data() + start, wire.size() - start);
  HttpOutcome outcome;
  outcome.state = parser.state();
  if (outcome.state == HttpParser::State::kComplete) {
    outcome.request = parser.request();
  } else if (outcome.state == HttpParser::State::kError) {
    outcome.error = parser.error();
  }
  return outcome;
}

// Cuts after every byte: byte-at-a-time feeding.
std::vector<size_t> EveryByte(std::string_view wire) {
  std::vector<size_t> cuts(wire.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    cuts[i] = i;
  }
  return cuts;
}

std::string DescribeHttp(const HttpOutcome& outcome) {
  std::string out = "state=" + std::to_string(static_cast<int>(outcome.state));
  if (outcome.state == HttpParser::State::kComplete) {
    out += " method=" + outcome.request.method + " path=" + outcome.request.path;
    for (const auto& [name, value] : outcome.request.headers) {
      out += " [" + name + ": " + value + "]";
    }
    out += " body=" + outcome.request.body;
  } else if (outcome.state == HttpParser::State::kError) {
    out += " error=" + outcome.error.ToString();
  }
  return out;
}

// The contract every outcome must keep, however hostile the bytes.
void ExpectHttpInvariants(const HttpOutcome& outcome, const std::string& wire) {
  if (outcome.state == HttpParser::State::kComplete) {
    EXPECT_LE(outcome.request.body.size(), kHarnessMaxBody) << testing::PrintToString(wire);
  }
  if (outcome.state == HttpParser::State::kError) {
    EXPECT_EQ(outcome.error.code(), StatusCode::kInvalidArgument) << testing::PrintToString(wire);
  }
}

std::string WithBody(std::string head, std::string_view body, std::string_view trailing = "") {
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  head += body;
  head += trailing;
  return head;
}

std::vector<std::string> ValidHttpRequests() {
  std::vector<std::string> requests = {
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
      WithBody("POST /check?target=squid&name=a.conf HTTP/1.1\r\nConnection: keep-alive\r\n",
               "workers 4\r\ncache_mem 64 MB\n"),
      // Mixed-case names, OWS, a junk line without a colon, and a body that
      // itself contains the header terminator.
      WithBody("POST /check HTTP/1.1\r\nX-Junk-No-Colon\r\nHOST:   example  \r\n", "a\r\n\r\nb"),
      WithBody("POST /check?target=mysql HTTP/1.1\r\n", ""),
      // Pipelined bytes after the body are discarded.
      WithBody("POST /check HTTP/1.1\r\n", "k = v\n", "GET /statz HTTP/1.1\r\n\r\n"),
  };
  // A header block exactly at the cap: the largest a request may carry.
  std::string at_cap = "GET /big HTTP/1.1\r\nX-Pad: ";
  at_cap += std::string(kMaxHeaderBytes - at_cap.size(), 'p');
  requests.push_back(at_cap + "\r\n\r\n");
  return requests;
}

TEST(ParserHarnessTest, HttpSplitPointsAndByteFeedingMatchOneCall) {
  for (const std::string& wire : ValidHttpRequests()) {
    HttpOutcome whole = FeedHttp(wire, {});
    ASSERT_EQ(whole.state, HttpParser::State::kComplete) << DescribeHttp(whole);
    const std::string expected = DescribeHttp(whole);
    // Every split point of the short requests; around the terminator and
    // at a stride for the one at the header cap.
    size_t header_end = wire.find("\r\n\r\n");
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
      bool near_terminator = cut + 8 >= header_end && cut <= header_end + 8;
      if (wire.size() > 1024 && !near_terminator && cut % 251 != 0) {
        continue;
      }
      EXPECT_EQ(DescribeHttp(FeedHttp(wire, {cut})), expected) << "split at " << cut;
    }
    EXPECT_EQ(DescribeHttp(FeedHttp(wire, EveryByte(wire))), expected) << "byte at a time";
  }
}

// Bit flips, truncation, stray CR/LF and hostile Content-Length values over
// the valid requests. One call, random chunks and byte-at-a-time feeding
// must agree, and every outcome keeps the parser's contract.
TEST(ParserHarnessTest, MutatedHttpRequestsKeepTheParserContract) {
  SCOPED_TRACE("gtest random seed " + std::to_string(GtestSeed()));
  DeterministicRng rng(HarnessSeed(0x4774702d68726e73ULL));
  std::vector<std::string> bases = ValidHttpRequests();
  bases.pop_back();  // The 16 KiB request costs more than it adds here.
  const std::vector<std::string> kContentLengths = {
      "4097",  // One past the harness body cap.
      "99999999999999999999", "18446744073709551615", "18446744073709551616",
      "9223372036854775807", "-1", "+5", "0x10", "1e3", "", " 3 ", std::string("3\0" "9", 3)};
  // A Content-Length that is not all digits after trimming never frames a
  // body, whatever strtoll would make of it ("+5", "3\0009").
  for (const std::string& length : kContentLengths) {
    std::string_view trimmed = TrimWhitespace(length);
    if (!trimmed.empty() && trimmed.find_first_not_of("0123456789") == std::string_view::npos) {
      continue;
    }
    std::string wire = "POST /check HTTP/1.1\r\nContent-Length: " + length + "\r\n\r\nabcdefghi";
    EXPECT_EQ(FeedHttp(wire, {}).state, HttpParser::State::kError)
        << testing::PrintToString(length);
  }
  size_t completes = 0;
  size_t errors = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    std::string wire = bases[rng.NextBounded(bases.size())];
    for (uint64_t round = rng.NextBounded(3) + 1; round > 0; --round) {
      switch (rng.NextBounded(4)) {
        case 0:
          if (!wire.empty()) {
            wire[rng.NextBounded(wire.size())] ^= static_cast<char>(1u << rng.NextBounded(8));
          }
          break;
        case 1:
          wire.resize(rng.NextBounded(wire.size() + 1));
          break;
        case 2:
          wire.insert(rng.NextBounded(wire.size() + 1), 1, rng.NextBounded(2) != 0 ? '\r' : '\n');
          break;
        default: {
          const std::string& length = kContentLengths[rng.NextBounded(kContentLengths.size())];
          size_t at = wire.find("Content-Length:");
          if (at == std::string::npos) {
            size_t eol = wire.find("\r\n");
            wire.insert(eol == std::string::npos ? wire.size() : eol + 2,
                        "Content-Length: " + length + "\r\n");
          } else {
            size_t value = at + std::string_view("Content-Length:").size();
            size_t eol = wire.find("\r\n", value);
            wire.replace(value, (eol == std::string::npos ? wire.size() : eol) - value,
                         " " + length);
          }
          break;
        }
      }
    }
    HttpOutcome whole = FeedHttp(wire, {});
    ExpectHttpInvariants(whole, wire);
    completes += whole.state == HttpParser::State::kComplete ? 1 : 0;
    errors += whole.state == HttpParser::State::kError ? 1 : 0;

    std::vector<size_t> cuts;
    for (size_t pieces = rng.NextBounded(4); pieces > 0 && !wire.empty(); --pieces) {
      cuts.push_back(rng.NextBounded(wire.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    HttpOutcome chunked = FeedHttp(wire, cuts);
    ExpectHttpInvariants(chunked, wire);
    EXPECT_EQ(DescribeHttp(chunked), DescribeHttp(whole)) << testing::PrintToString(wire);

    EXPECT_EQ(DescribeHttp(FeedHttp(wire, EveryByte(wire))), DescribeHttp(whole))
        << testing::PrintToString(wire);
  }
  // The mutations must reach both outcomes, or the harness proves nothing.
  EXPECT_GT(completes, 100u);
  EXPECT_GT(errors, 100u);
}

// Two Content-Length headers leave the body's framing ambiguous, so the
// request fails whether the values differ or agree, whatever the case of
// the names, and however the bytes arrive.
TEST(ParserRobustnessTest, RepeatedContentLengthFailsTheRequest) {
  const std::vector<std::string> wires = {
      "POST /check HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nabcdefgh",
      "POST /check HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc",
      "POST /check HTTP/1.1\r\nContent-Length: 3\r\nHost: x\r\nCONTENT-LENGTH:5\r\n\r\nabcde",
  };
  for (const std::string& wire : wires) {
    for (const HttpOutcome& outcome : {FeedHttp(wire, {}), FeedHttp(wire, EveryByte(wire))}) {
      ASSERT_EQ(outcome.state, HttpParser::State::kError)
          << testing::PrintToString(wire) << " " << DescribeHttp(outcome);
      EXPECT_EQ(outcome.error.message(), "repeated Content-Length header");
    }
  }
}

// Random config lines over a hostile alphabet: bare token runs, comments,
// and key/value lines split by '=' or a space.
class HostileLines {
 public:
  explicit HostileLines(DeterministicRng& rng) : rng_(rng) {}

  std::string Tokens(uint64_t max_count) {
    static const std::vector<std::string> kTokens = {
        "=", "#", ";", "\"", "'", "\t", " ", " ", "\r", "\v", std::string(1, '\0'), "\x80",
        "\xc3\xa9", "\xff", "k", "key", "v", "value", "1", "64 MB", "include "};
    std::string out;
    for (uint64_t n = rng_.NextBounded(max_count + 1); n > 0; --n) {
      out += kTokens[rng_.NextBounded(kTokens.size())];
    }
    return out;
  }

  std::string Line() {
    switch (rng_.NextBounded(4)) {
      case 0:
        return Tokens(4);
      case 1:
        return "#" + Tokens(3);
      default:
        return "k" + Tokens(3) + (rng_.NextBounded(2) != 0 ? "=" : " ") + Tokens(4);
    }
  }

  std::string Terminator() { return rng_.NextBounded(3) == 0 ? "\r\n" : "\n"; }

 private:
  DeterministicRng& rng_;
};

// Random config text over the hostile alphabet. For every text Parse
// accepts, Serialize(Parse(text)) must be a fixed point: parsing it again
// gives the same entries and the same text.
TEST(ParserHarnessTest, AcceptedConfigTextSerializesToAFixedPoint) {
  SCOPED_TRACE("gtest random seed " + std::to_string(GtestSeed()));
  for (ConfigDialect dialect : {ConfigDialect::kKeyEqualsValue, ConfigDialect::kKeyValue}) {
    DeterministicRng rng(HarnessSeed(0x636f6e66ULL + static_cast<uint64_t>(dialect)));
    HostileLines hostile(rng);
    size_t accepted = 0;
    constexpr int kTexts = 20000;
    for (int iteration = 0; iteration < kTexts; ++iteration) {
      std::string text;
      for (uint64_t line = rng.NextBounded(6); line > 0; --line) {
        text += hostile.Line();
        text += hostile.Terminator();
      }
      if (rng.NextBounded(4) == 0) {
        text += hostile.Tokens(3);  // No final newline.
      }
      Status error;
      ConfigFile parsed = ConfigFile::Parse(text, dialect, &error);
      if (!error.ok()) {
        continue;
      }
      ++accepted;
      std::string once = parsed.Serialize();
      ConfigFile reparsed = ConfigFile::Parse(once, dialect);
      EXPECT_EQ(reparsed.Serialize(), once) << testing::PrintToString(text);
      ASSERT_EQ(reparsed.entries().size(), parsed.entries().size())
          << testing::PrintToString(text);
      for (size_t i = 0; i < parsed.entries().size(); ++i) {
        const ConfigEntry& a = parsed.entries()[i];
        const ConfigEntry& b = reparsed.entries()[i];
        EXPECT_TRUE(a.kind == b.kind && a.key == b.key && a.value == b.value && a.line == b.line)
            << "entry " << i << " of " << testing::PrintToString(text);
      }
    }
    // Most generated texts must parse without error, or the property is
    // vacuous.
    EXPECT_GT(accepted, static_cast<size_t>(kTexts / 4)) << ConfigDialectName(dialect);
  }
}

// The depth-first concatenation of an include tree with its include lines
// dropped, built the way the resolver walks it (same caps, same cycle
// rule), and the file:line each flat line came from.
class TreeFlattener {
 public:
  TreeFlattener(const std::vector<ConfigInput>& files, ConfigDialect dialect,
                const ConfigSetOptions& options)
      : source_(files), dialect_(dialect), options_(options) {}

  void Expand(const std::string& name, size_t depth) {
    if (stopped_ || depth > options_.max_include_depth || stack_.count(name) > 0) {
      return;
    }
    if (loaded_ >= options_.max_files) {
      stopped_ = true;
      return;
    }
    std::optional<std::string> text = source_.Load(name);
    if (!text.has_value()) {
      return;
    }
    ++loaded_;
    stack_.insert(name);
    std::vector<std::string> lines = SplitString(*text, '\n');
    ConfigFile parsed = ConfigFile::Parse(*text, dialect_);
    for (const ConfigEntry& entry : parsed.entries()) {
      bool is_dir = false;
      std::string operand;
      if (!ParseIncludeDirective(entry, &is_dir, &operand)) {
        flat_ += lines[entry.line - 1] + "\n";
        origins_.push_back(name + ": line " + std::to_string(entry.line));
        continue;
      }
      if (operand.empty()) {
        continue;
      }
      std::string target = JoinIncludePath(name, operand);
      if (!is_dir) {
        Expand(target, depth + 1);
        continue;
      }
      std::optional<std::vector<std::string>> listed = source_.ListDir(target);
      for (const std::string& child : listed.value_or(std::vector<std::string>{})) {
        Expand(child, depth + 1);
      }
    }
    stack_.erase(name);
  }

  const std::string& flat() const { return flat_; }
  // "<file>: line N" of flat line `line` (1-based).
  const std::string& origin(size_t line) const { return origins_.at(line - 1); }

 private:
  MemoryConfigSetSource source_;
  ConfigDialect dialect_;
  ConfigSetOptions options_;
  std::set<std::string> stack_;
  size_t loaded_ = 0;
  bool stopped_ = false;
  std::string flat_;
  std::vector<std::string> origins_;
};

// Seeded include trees over the hostile alphabet, with include and
// include_dir lines whose operands are empty, quoted, "..", absolute, the
// file itself or a cycle. Resolution stays within its caps and reports
// only its four fault kinds, and a tree fails a static check exactly when
// its flat concatenation does, for the same reason at the same source
// line.
TEST(ParserHarnessTest, HostileConfigTreesMatchTheirFlatFile) {
  SCOPED_TRACE("gtest random seed " + std::to_string(GtestSeed()));
  const std::vector<std::string> kNames = {"root.conf", "a.conf", "conf.d/b.conf",
                                           "conf.d/c.conf", "/etc/abs.conf"};
  ConfigSetOptions set_options;
  set_options.max_files = 4;
  set_options.max_include_depth = 2;
  BatchOptions static_check;
  static_check.check.mode = CheckMode::kStatic;
  for (ConfigDialect dialect : {ConfigDialect::kKeyEqualsValue, ConfigDialect::kKeyValue}) {
    DeterministicRng rng(HarnessSeed(0x74726565ULL + static_cast<uint64_t>(dialect)));
    HostileLines hostile(rng);
    Session session;
    const bool equals = dialect == ConfigDialect::kKeyEqualsValue;
    Target* target = session.LoadSource("int depth = 1;\nint server_init() { return 0; }\n", "",
                                        "tree.c", dialect, SutSpec{},
                                        equals ? "depth = 1\n" : "depth 1\n");
    ASSERT_NE(target, nullptr) << session.RenderDiagnostics();

    auto include_line = [&](const std::string& name) {
      // The including file itself, named relative to its own directory.
      const std::string self = name.front() == '/' ? name : name.substr(name.rfind('/') + 1);
      const std::vector<std::string> operands = {
          "", "\"\"", self, "\"" + self + "\"", "'a.conf'", "<conf.d/b.conf>", "a.conf",
          "../a.conf", "conf.d/../root.conf", "/etc/abs.conf", "root.conf", "conf.d",
          "missing.conf", "conf.d/c.conf"};
      const std::string& operand = operands[rng.NextBounded(operands.size())];
      std::string word = rng.NextBounded(3) == 0 ? "include_dir" : "include";
      if (equals && rng.NextBounded(2) == 0) {
        return word + " = " + operand;
      }
      return word + (operand.empty() ? "" : " " + operand);
    };
    constexpr size_t kTrees = 20000;
    std::vector<ConfigSetInput> sets(kTrees);
    std::vector<ConfigInput> flats(kTrees);
    std::vector<TreeFlattener> flatteners;
    flatteners.reserve(kTrees);
    for (size_t tree = 0; tree < kTrees; ++tree) {
      std::vector<ConfigInput>& files = sets[tree].files;
      for (const std::string& name : kNames) {
        if (!files.empty() && rng.NextBounded(3) == 0) {
          continue;
        }
        std::string text;
        for (uint64_t line = rng.NextBounded(5); line > 0; --line) {
          text += rng.NextBounded(2) == 0 ? include_line(name) : hostile.Line();
          text += hostile.Terminator();
        }
        files.push_back(ConfigInput{name, std::move(text)});
      }
      flatteners.emplace_back(files, dialect, set_options);
      flatteners.back().Expand(files.front().name, 0);
      flats[tree] = ConfigInput{"flat.conf", flatteners.back().flat()};
    }

    std::vector<ResolvedConfigSet> resolutions;
    BatchSummary tree_summary =
        target->CheckConfigSet(sets, static_check, nullptr, &resolutions, set_options);
    BatchSummary flat_summary = target->CheckConfigBatch(flats, static_check);
    ASSERT_EQ(tree_summary.reports.size(), kTrees);
    ASSERT_EQ(flat_summary.reports.size(), kTrees);
    size_t failed = 0;
    std::set<std::string> kinds;
    for (size_t tree = 0; tree < kTrees; ++tree) {
      const ResolvedConfigSet& resolution = resolutions[tree];
      EXPECT_LE(resolution.files_resolved, set_options.max_files);
      for (const ConfigSetError& error : resolution.errors) {
        kinds.insert(ConfigSetErrorKindName(error.kind));
      }
      const Status& tree_status = tree_summary.reports[tree].status;
      const Status& flat_status = flat_summary.reports[tree].status;
      const std::string trace = testing::PrintToString(sets[tree].files.front().text) + " flat " +
                                testing::PrintToString(flats[tree].text);
      ASSERT_EQ(tree_status.ok(), flat_status.ok()) << tree_status.ToString() << " vs "
                                                    << flat_status.ToString() << " for " << trace;
      if (flat_status.ok()) {
        continue;
      }
      ++failed;
      // "line K: <reason>" of the flat file is "<file>: line N: <reason>"
      // of the tree, where flat line K came from line N of <file>.
      const std::string& message = flat_status.message();
      size_t colon = message.find(": ");
      ASSERT_EQ(message.rfind("line ", 0), 0u) << message;
      EXPECT_EQ(tree_status.code(), StatusCode::kInvalidArgument) << trace;
      EXPECT_EQ(tree_status.message(),
                flatteners[tree].origin(std::stoul(message.substr(5, colon - 5))) +
                    message.substr(colon))
          << trace;
      EXPECT_TRUE(tree_summary.reports[tree].violations.empty()) << trace;
    }
    // Every fault kind shows up; in key=value both outcomes do, and the
    // key-value dialect has no malformed lines at all.
    EXPECT_EQ(kinds, (std::set<std::string>{"missing-include", "include-cycle",
                                            "depth-exceeded", "too-many-files"}));
    if (equals) {
      EXPECT_GT(failed, kTrees / 10);
      EXPECT_LT(failed, kTrees - kTrees / 10);
    } else {
      EXPECT_EQ(failed, 0u);
    }
  }
}

// The one encoding a client is told to use: every name and text through
// JsonEscape.
std::string EncodeSetBody(const std::vector<ConfigInput>& files) {
  std::string body = "{\"files\":[";
  for (size_t i = 0; i < files.size(); ++i) {
    body += i == 0 ? "" : ",";
    body += "{\"name\":\"" + JsonEscape(files[i].name) + "\",\"text\":\"" +
            JsonEscape(files[i].text) + "\"}";
  }
  return body + "]}";
}

// Bit flips, truncation, stray quotes and backslashes, \u escapes (lone
// surrogates included) and NUL bytes over valid /check set bodies. Every
// body parses or is a kInvalidArgument naming a byte inside it, and every
// accepted body, encoded again, parses back to the same files.
TEST(ParserHarnessTest, MutatedSetBodiesKeepTheParserContract) {
  SCOPED_TRACE("gtest random seed " + std::to_string(GtestSeed()));
  DeterministicRng rng(HarnessSeed(0x6a736f6e2d736574ULL));
  static constexpr char kNulText[] = "nul\0byte = \x01\x7f\n";
  const std::vector<std::vector<ConfigInput>> kSets = {
      {{"main.conf", "log_level = 2\ninclude conf.d/site.conf\n"},
       {"conf.d/site.conf", "log_level = 3\n# caf\xc3\xa9 \xe2\x82\xac\n"}},
      {{"squid.conf", "workers 4\r\ncache_mem 64 MB\tx\n"}},
      {{"a \"quoted\" \\ name", std::string(kNulText, sizeof(kNulText) - 1)}},
  };
  const std::vector<std::string> kEscapes = {
      "\\ud800", "\\udfff", "\\ud83d\\ude00", "\\ud83d", "\\ude00\\ud83d", "\\u0000",
      "\\u00e9", "\\u20ac", "\\uffff", "\\u12", "\\u", "\\x41", "\\"};
  size_t accepted = 0;
  size_t rejected = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    std::string body = EncodeSetBody(kSets[rng.NextBounded(kSets.size())]);
    for (uint64_t round = rng.NextBounded(3) + 1; round > 0; --round) {
      size_t at = rng.NextBounded(body.size() + 1);
      switch (rng.NextBounded(5)) {
        case 0:
          if (at < body.size()) {
            body[at] ^= static_cast<char>(1u << rng.NextBounded(8));
          }
          break;
        case 1:
          body.resize(at);
          break;
        case 2:
          body.insert(at, 1, rng.NextBounded(2) != 0 ? '"' : '\\');
          break;
        case 3:
          body.insert(at, kEscapes[rng.NextBounded(kEscapes.size())]);
          break;
        default:
          body.insert(at, 1, '\0');
          break;
      }
    }
    ConfigSetInput input;
    Status status = ParseConfigSetJson(body, &input);
    if (!status.ok()) {
      ++rejected;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << testing::PrintToString(body);
      size_t at_byte = status.message().rfind(" at byte ");
      ASSERT_NE(at_byte, std::string::npos) << status.message();
      EXPECT_LE(std::stoull(status.message().substr(at_byte + 9)), body.size())
          << status.message();
      continue;
    }
    ++accepted;
    ConfigSetInput again;
    Status reparsed = ParseConfigSetJson(EncodeSetBody(input.files), &again);
    ASSERT_TRUE(reparsed.ok()) << reparsed.message() << " for " << testing::PrintToString(body);
    EXPECT_EQ(again.name, input.name) << testing::PrintToString(body);
    ASSERT_EQ(again.files.size(), input.files.size()) << testing::PrintToString(body);
    for (size_t i = 0; i < input.files.size(); ++i) {
      EXPECT_EQ(again.files[i].name, input.files[i].name) << testing::PrintToString(body);
      EXPECT_EQ(again.files[i].text, input.files[i].text) << testing::PrintToString(body);
    }
  }
  // The mutations must reach both outcomes, or the harness proves nothing.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace spex
