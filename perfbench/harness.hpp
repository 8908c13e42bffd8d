// Pieces every janus_perfbench subcommand shares: one caller per entry point
// with its reply classifier, latency percentiles, spans, and a small JSON
// writer for the result files run.py reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.hpp"
#include "router/udp_qos_client.hpp"
#include "workloads.hpp"

namespace janus::perfbench {

inline std::uint64_t now_ns() {
  // steady_clock is CLOCK_MONOTONIC, the clock run.py's time.monotonic()
  // reads, so timestamps from both sides compare directly.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What one call returned. Only kTrue and kFalse are checked verdicts; the
/// rest count as failed requests.
enum class Outcome : std::uint8_t {
  kTrue,
  kFalse,
  kDefault,  // the router's default reply after its retries ran out
  kError,    // transport failure, or a non-decision status such as overloaded
  kUnknown,  // a reply the protocol does not define
};

inline bool is_verdict(Outcome o) {
  return o == Outcome::kTrue || o == Outcome::kFalse;
}

/// Per-attempt timeout of every UDP client on the path: the benchmark's own
/// and the routers' (run.py starts them with the same --timeout-us). The
/// paper's 100 us, which net::wait_readable rounds up to 1 ms, turns every
/// host stall of a few milliseconds into retries and default replies, so a
/// run would measure the host. With 5 attempts of 50 ms, a default reply
/// means the server stopped answering.
inline constexpr Duration kUdpAttemptTimeout = millis(50);

/// One closed-loop caller bound to an entry point. Not thread-safe: one per
/// thread, like the router's own UDP clients.
class Caller {
 public:
  virtual ~Caller() = default;
  Caller() = default;
  Caller(const Caller&) = delete;
  Caller& operator=(const Caller&) = delete;
  Caller(Caller&&) = delete;
  Caller& operator=(Caller&&) = delete;

  virtual Outcome call(const std::string& key) = 0;

  static std::unique_ptr<Caller> make(Entry entry, const net::SockAddr& target);
};

/// HTTP reply validation: 200, a known X-Janus-Status, a TRUE/FALSE body.
Outcome classify(const Result<net::HttpResponse>& reply);
/// UDP reply validation: a decoded response with a known status.
Outcome classify(const Result<wire::QosResponse>& reply);

/// Exact percentile of latency samples in nanoseconds, returned in
/// microseconds. A failed request is recorded as kFailedNs, above any limit.
inline constexpr std::uint32_t kFailedNs = 0xFFFFFFFFu;
double percentile_us(std::vector<std::uint32_t> samples, double q);

inline std::uint32_t clamp_ns(std::uint64_t ns) {
  return ns >= kFailedNs ? kFailedNs - 1 : static_cast<std::uint32_t>(ns);
}

/// One timed call (or batch of in-process calls) from the benchmark's side.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t name = 0;    // index into SpanLog::names
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans stay in memory until write_spans(); one log per thread.
struct SpanLog {
  std::vector<std::string> names;
  std::vector<Span> spans;

  std::uint32_t intern(std::string_view name);
};

/// Writes `id parent name start_ns end_ns` rows, one per span.
Status write_spans(const std::string& path, const std::vector<SpanLog>& logs);

/// Flat JSON object writer: nested objects via begin/end.
class Json {
 public:
  Json& begin(std::string_view key = {});
  Json& end();
  Json& num(std::string_view key, double v);
  Json& num(std::string_view key, std::uint64_t v);
  Json& boolean(std::string_view key, bool v);
  Json& str(std::string_view key, std::string_view v);
  Json& arr(std::string_view key, const std::vector<double>& v);
  const std::string& text() const { return out_; }

 private:
  void sep(std::string_view key);
  std::string out_;
  bool first_ = true;
};

Status write_file(const std::string& path, const std::string& text);

/// "--name value" pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::optional<std::string> get(const std::string& name) const;
  std::string str(const std::string& name, const std::string& fallback) const;
  double num(const std::string& name, double fallback) const;
  std::optional<net::SockAddr> addr(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

/// The workload named by --workload, seeded by --seed (an unsigned 64-bit
/// integer, parsed exactly).
Result<Workload> workload_from(const Args& args);

}  // namespace janus::perfbench
