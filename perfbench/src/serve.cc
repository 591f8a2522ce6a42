// serve-mixed: an in-process spexcheckd (CheckServer) under a closed loop
// of /check requests from one generator thread over four connections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "inputs.h"
#include "layers.h"
#include "src/serve/http.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

constexpr size_t kConnections = 4;  // Two keep-alive, two close-per-request.
constexpr size_t kRounds = 10;
constexpr size_t kTracedRounds = 4;  // Alternating untraced and traced.
constexpr size_t kWarmupWindow = 300;
constexpr size_t kMaxWarmupWindows = 12;
constexpr double kWarmupAgreement = 0.1;
constexpr double kThroughputWindowS = 0.5;
constexpr size_t kShadowRequests = 400;

struct Response {
  size_t request_index = 0;
  ServeRequest request;
  bool keep_alive = false;
  int http_status = 0;  // 0: the connection failed before a response.
  bool degraded = false;
  std::string violations;  // The violation lines, newline-joined.
  Clock::time_point sent;
  Clock::time_point done;
};

int Connect(uint16_t port) {
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
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Parses a complete response out of `in`; false while more bytes are due.
bool ParseResponse(const std::string& in, Response* response, bool* server_closes) {
  size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return false;
  }
  size_t length_at = in.find("Content-Length: ");
  if (length_at == std::string::npos || length_at > header_end) {
    return false;
  }
  size_t length = std::strtoul(in.c_str() + length_at + 16, nullptr, 10);
  if (in.size() < header_end + 4 + length) {
    return false;
  }
  response->http_status = std::atoi(in.c_str() + in.find(' ') + 1);
  *server_closes = in.find("Connection: close") < header_end;
  std::string_view body(in.data() + header_end + 4, length);
  response->violations.clear();
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    std::string_view line = body.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    if (line.rfind("{\"type\":\"violation\"", 0) == 0) {
      response->violations.append(line).append("\n");
    } else if (line.rfind("{\"type\":\"summary\"", 0) == 0) {
      response->degraded = line.find("\"degraded\":true") != std::string_view::npos;
    }
    pos = eol == std::string_view::npos ? body.size() : eol + 1;
  }
  return true;
}

// Drives the closed loop: each connection sends its next request only
// after the previous response arrived. `next` yields request i, or nothing
// once the phase is over; `on_response` sees every outcome.
void DriveClosedLoop(uint16_t port, const ServeTraffic& traffic,
                     const std::function<std::optional<ServeRequest>(size_t)>& next,
                     const std::function<void(Response&&)>& on_response) {
  struct Slot {
    int fd = -1;
    bool keep_alive = false;
    bool busy = false;
    std::string in;
    Response response;
  };
  std::vector<Slot> slots(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    slots[c].keep_alive = c % 2 == 0;
  }
  size_t index = 0;
  bool exhausted = false;
  auto fail = [&](Slot& slot) {
    if (slot.fd >= 0) {
      ::close(slot.fd);
      slot.fd = -1;
    }
    slot.busy = false;
    slot.response.http_status = 0;
    slot.response.done = Clock::now();
    on_response(std::move(slot.response));
  };
  while (true) {
    for (Slot& slot : slots) {
      if (slot.busy || exhausted) {
        continue;
      }
      std::optional<ServeRequest> request = next(index);
      if (!request.has_value()) {
        exhausted = true;
        break;
      }
      slot.response = Response{};
      slot.response.request_index = index++;
      slot.response.keep_alive = slot.keep_alive;
      const std::string bytes = CheckRequestBytes(traffic, *request, slot.keep_alive);
      slot.response.request = std::move(*request);
      slot.busy = true;
      slot.in.clear();
      if (slot.fd < 0) {
        slot.fd = Connect(port);
      }
      slot.response.sent = Clock::now();
      if (slot.fd < 0 || !SendAll(slot.fd, bytes)) {
        fail(slot);
      }
    }
    std::vector<pollfd> fds;
    std::vector<Slot*> owners;
    for (Slot& slot : slots) {
      if (slot.busy) {
        fds.push_back(pollfd{slot.fd, POLLIN, 0});
        owners.push_back(&slot);
      }
    }
    if (fds.empty()) {
      if (exhausted) {
        return;
      }
      continue;
    }
    if (::poll(fds.data(), fds.size(), 10000) <= 0) {
      for (Slot* slot : owners) {
        fail(*slot);  // Ten silent seconds: count the requests as failed.
      }
      continue;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      Slot& slot = *owners[i];
      char chunk[16384];
      ssize_t n = ::recv(slot.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) {
        fail(slot);
        continue;
      }
      slot.in.append(chunk, static_cast<size_t>(n));
      bool server_closes = false;
      if (!ParseResponse(slot.in, &slot.response, &server_closes)) {
        continue;
      }
      slot.response.done = Clock::now();
      slot.busy = false;
      if (!slot.keep_alive || server_closes) {
        ::close(slot.fd);
        slot.fd = -1;
      }
      on_response(std::move(slot.response));
    }
  }
}

// What the timing record keeps of one timed response: no bytes, so the
// record does not grow with the bodies.
struct Timing {
  size_t request_index = 0;
  bool keep_alive = false;
  bool novel = false;
  bool ok = false;  // HTTP 200.
  bool degraded = false;
  Clock::time_point sent;
  Clock::time_point done;
};

// Timed-window answers collected for the gate. Per distinct body (by
// hash): the round and timed-stream index that first sent it, from which
// the gate regenerates the body, and a hash of the violation lines of its
// dynamic and of its degraded (static) answers.
struct Answers {
  struct Seen {
    size_t round = 0;
    size_t request_index = 0;
    size_t lines = 0;
  };
  std::unordered_map<size_t, Seen> dynamic;
  std::unordered_map<size_t, Seen> degraded;
  uint64_t disagreements = 0;

  void Add(size_t round, const Response& response) {
    const size_t lines = std::hash<std::string>{}(response.violations);
    auto& answers = response.degraded ? degraded : dynamic;
    auto [it, inserted] = answers.emplace(std::hash<std::string>{}(response.request.body),
                                          Seen{round, response.request_index, lines});
    if (!inserted && it->second.lines != lines) {
      ++disagreements;
    }
  }
};

size_t LinesHash(const std::vector<spex::Violation>& violations) {
  std::string lines;
  for (const spex::Violation& violation : violations) {
    lines += ViolationLine(violation) + "\n";
  }
  return std::hash<std::string>{}(lines);
}

// The serve targets on a session of their own, checking one body at a time
// as a 1-config batch: what the server runs per /check, in process.
class InProcess {
 public:
  InProcess() {
    for (const std::string& name : ServeTraffic::TargetNames()) {
      targets_.push_back(LoadOrDie(&session_, name));
    }
  }
  const spex::Session& session() const { return session_; }
  const std::vector<spex::Target*>& targets() const { return targets_; }
  void Check(const ServeRequest& request) const {
    spex::ConfigInput input{kServeConfigName, request.body};
    spex::BatchOptions single;
    single.check.mode = spex::CheckMode::kDynamic;
    targets_[request.target]->CheckConfigBatch(std::span(&input, 1), single);
  }

 private:
  spex::Session session_;
  std::vector<spex::Target*> targets_;
};

std::vector<ServeTraffic> GenerateTraffic(uint64_t seed, size_t rounds) {
  const InProcess harness;
  return ServeTraffic::Rounds(harness.targets(), seed, rounds);
}

}  // namespace

Outcome RunServeMixed(const RunOptions& options) {
  Outcome out;
  out.item = "checks";
  // The harness session only generates the traffic; the in-process twin
  // and the gate load sessions of their own.
  const size_t rounds = options.trace ? kTracedRounds : kRounds;
  const std::vector<ServeTraffic> by_round = GenerateTraffic(options.seed, rounds);
  const double window_s = options.seconds / static_cast<double>(rounds);
  Answers answers;

  ResetPeakRss();
  for (size_t round = 0; round < rounds; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    const ServeTraffic& traffic = by_round[round];
    const std::vector<ServeRequest> warmup = traffic.WarmupBodies();
    spex::ServerOptions server_options;
    server_options.num_workers = 4;
    server_options.max_inflight_replays = kConnections;
    server_options.keepalive_max_requests = 1 << 30;
    Clock::time_point setup_start = Clock::now();
    spex::CheckServer server(server_options);
    if (!server.Start().ok()) {
      std::cerr << "spexbench: CheckServer failed to start\n";
      std::exit(1);
    }
    // Warm-up: every pool body, one novel body per touched parameter, then
    // windows of the mix until two in a row agree on throughput.
    uint64_t warm_failures = 0;
    auto count_warm = [&](Response&& response) {
      warm_failures += response.http_status == 200 ? 0 : 1;
    };
    DriveClosedLoop(
        server.port(), traffic,
        [&](size_t i) -> std::optional<ServeRequest> {
          if (i < warmup.size()) {
            return warmup[i];
          }
          return std::nullopt;
        },
        count_warm);
    double previous = 0;
    size_t warm_requests = 0;  // Sent from stream 0, for the twin to replay.
    for (size_t w = 0; w < kMaxWarmupWindows; ++w) {
      Clock::time_point window_start = Clock::now();
      DriveClosedLoop(
          server.port(), traffic,
          [&](size_t i) -> std::optional<ServeRequest> {
            if (i < kWarmupWindow) {
              return traffic.Next(0, w * kWarmupWindow + i);
            }
            return std::nullopt;
          },
          count_warm);
      warm_requests += kWarmupWindow;
      double rate = kWarmupWindow / (MillisSince(window_start) / 1000.0);
      if (w > 0 && std::abs(rate - previous) <= kWarmupAgreement * std::max(rate, previous)) {
        break;
      }
      previous = rate;
    }
    Clock::time_point setup_end = Clock::now();
    out.setup_s.push_back(MillisBetween(setup_start, setup_end) / 1000.0);
    out.failed += warm_failures;
    out.attempted += warm_failures;

    // The timed window.
    const spex::ServerStats stats_before = server.stats();
    const size_t loads_before = server.targets().loads();
    const size_t hits_before = server.targets().hits();
    std::vector<Timing> responses;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(window_s));
    DriveClosedLoop(
        server.port(), traffic,
        [&](size_t i) -> std::optional<ServeRequest> {
          if (Clock::now() < stop) {
            return traffic.Next(1, i);
          }
          return std::nullopt;
        },
        [&](Response&& response) {
          const bool ok = response.http_status == 200;
          if (ok) {
            answers.Add(round, response);
          }
          responses.push_back(Timing{response.request_index, response.keep_alive,
                                     response.request.novel, ok, response.degraded,
                                     response.sent, response.done});
        });
    const spex::ServerStats stats_after = server.stats();
    const size_t loads = server.targets().loads() - loads_before;
    const size_t hits = server.targets().hits() - hits_before;
    server.Shutdown();
    server.Join();

    // Throughput per fixed window of completions, over whole windows only.
    std::vector<size_t> per_window;
    std::vector<double> latencies;
    for (const Timing& response : responses) {
      out.attempted += 1;
      if (!response.ok) {
        out.failed += 1;
        continue;
      }
      out.degraded += response.degraded ? 1 : 0;
      latencies.push_back(MillisBetween(response.sent, response.done));
      size_t window = static_cast<size_t>(MillisBetween(start, response.done) / 1000.0 /
                                          kThroughputWindowS);
      if (window >= per_window.size()) {
        per_window.resize(window + 1, 0);
      }
      per_window[window] += 1;
    }
    for (size_t w = 0; w + 1 < per_window.size() && (w + 1) * kThroughputWindowS <= window_s;
         ++w) {
      out.items_per_s.push_back(static_cast<double>(per_window[w]) / kThroughputWindowS);
    }
    out.latency_ms.insert(out.latency_ms.end(), latencies.begin(), latencies.end());
    if (options.trace) {
      (traced ? out.traced_ms : out.untraced_ms).push_back(Median(latencies));
    }
    if (!traced) {
      continue;
    }

    Tracer& tracer = out.tracer;
    LayerSample sample;
    int64_t setup_span = tracer.Record("setup", setup_start, setup_end, -1, -1);
    std::vector<int64_t> request_span(responses.size(), -1);
    std::vector<double> keepalive, close, repeat, novel;
    for (size_t r = 0; r < responses.size(); ++r) {
      const Timing& response = responses[r];
      request_span[r] = tracer.Record("request", response.sent, response.done, -1,
                                      static_cast<int64_t>(response.request_index));
      double ms = MillisBetween(response.sent, response.done);
      (response.keep_alive ? keepalive : close).push_back(ms);
      (response.novel ? novel : repeat).push_back(ms);
    }
    // The in-process twin: a fresh session given the warm-up this round's
    // server had, then the window's first requests in the order they
    // completed, each parsed and checked as the server did.
    const InProcess twin;
    for (size_t t = 0; t < twin.targets().size(); ++t) {
      TraceLoad(traffic.target_name(t), twin.session().apis(), &tracer, setup_span, &sample);
    }
    for (const ServeRequest& request : warmup) {
      twin.Check(request);
    }
    for (size_t k = 0; k < warm_requests; ++k) {
      twin.Check(traffic.Next(0, k));
    }
    std::vector<double> parse_us, inproc_ms;
    for (size_t r = 0; r < std::min(kShadowRequests, responses.size()); ++r) {
      const Timing& response = responses[r];
      const ServeRequest request = traffic.Next(1, response.request_index);
      const std::string bytes = CheckRequestBytes(traffic, request, response.keep_alive);
      double parse_ms = tracer.Time("serve.http_parse", request_span[r], -1, [&] {
        spex::HttpParser parser(server_options.max_body_bytes);
        parser.Consume(bytes.data(), bytes.size());
      });
      parse_us.push_back(parse_ms * 1000.0);
      inproc_ms.push_back(
          tracer.Time("serve.inproc_check", request_span[r], -1, [&] { twin.Check(request); }));
    }
    sample["serve.request_p50_ms"] = Median(latencies);
    sample["serve.http_parse_us"] = Median(parse_us);
    sample["serve.inproc_check_ms"] = Median(inproc_ms);
    sample["serve.overhead_ms"] = Median(latencies) - Median(inproc_ms);
    sample["serve.keepalive_p50_ms"] = Median(keepalive);
    sample["serve.close_p50_ms"] = Median(close);
    sample["serve.repeat_p50_ms"] = Median(repeat);
    sample["serve.novel_p99_ms"] = Quantile(novel, 0.99);
    sample["serve.accepted"] = static_cast<double>(stats_after.accepted - stats_before.accepted);
    sample["serve.keepalive_reuses"] =
        static_cast<double>(stats_after.keepalive_reuses - stats_before.keepalive_reuses);
    sample["serve.shed"] = static_cast<double>(stats_after.shed - stats_before.shed);
    sample["serve.degraded"] = static_cast<double>(stats_after.degraded - stats_before.degraded);
    sample["serve.internal_errors"] =
        static_cast<double>(stats_after.internal_errors - stats_before.internal_errors);
    sample["target_pool.loads"] = static_cast<double>(loads);
    sample["target_pool.hits"] = static_cast<double>(hits);
    out.layer_samples.push_back(std::move(sample));
  }
  out.peak_rss_mib = PeakRssMiB();

  // Gate: every answer must equal the in-process check of its body (the
  // static check when the server degraded the request), on a session that
  // served nothing.
  out.wrong_verdicts += answers.disagreements;
  const InProcess reference;
  std::vector<std::vector<spex::ConfigInput>> per_target(reference.targets().size());
  std::vector<std::vector<size_t>> expected(reference.targets().size());
  for (const auto& [body, seen] : answers.dynamic) {
    ServeRequest request = by_round[seen.round].Next(1, seen.request_index);
    per_target[request.target].push_back(
        spex::ConfigInput{kServeConfigName, std::move(request.body)});
    expected[request.target].push_back(seen.lines);
  }
  for (const auto& [body, seen] : answers.degraded) {
    const ServeRequest request = by_round[seen.round].Next(1, seen.request_index);
    out.wrong_verdicts +=
        LinesHash(reference.targets()[request.target]->CheckConfig(request.body,
                                                                   kServeConfigName)) != seen.lines;
  }
  spex::BatchOptions reference_options;
  reference_options.check.mode = spex::CheckMode::kDynamic;
  reference_options.num_threads = 0;
  for (size_t t = 0; t < per_target.size(); ++t) {
    spex::BatchSummary batch =
        reference.targets()[t]->CheckConfigBatch(per_target[t], reference_options);
    out.wrong_verdicts += batch.reports.size() != expected[t].size();
    for (size_t i = 0; i < std::min(batch.reports.size(), expected[t].size()); ++i) {
      out.wrong_verdicts += LinesHash(batch.reports[i].violations) != expected[t][i];
    }
  }
  return out;
}

}  // namespace perfbench
