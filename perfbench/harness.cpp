#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/string_util.hpp"
#include "wire/http_codec.hpp"

namespace janus::perfbench {

namespace {

class HttpCaller final : public Caller {
 public:
  explicit HttpCaller(const net::SockAddr& target) : client_(target) {}

  Outcome call(const std::string& key) override {
    wire::QosRequest req;
    req.key = key;
    return classify(client_.get(wire::format_qos_target(req)));
  }

 private:
  net::HttpClient client_;
};

class UdpCaller final : public Caller {
 public:
  explicit UdpCaller(const net::SockAddr& target) : server_(target) {}

  Outcome call(const std::string& key) override {
    wire::QosRequest req;
    req.key = key;
    return classify(client_.call(server_, req));
  }

 private:
  net::SockAddr server_;
  router::UdpQosClient client_{{.timeout = kUdpAttemptTimeout}};
};

}  // namespace

std::unique_ptr<Caller> Caller::make(Entry entry, const net::SockAddr& target) {
  if (entry == Entry::kHttp) return std::make_unique<HttpCaller>(target);
  return std::make_unique<UdpCaller>(target);
}

Outcome classify(const Result<net::HttpResponse>& reply) {
  if (!reply.ok()) return Outcome::kError;
  const net::HttpResponse& r = reply.value();
  auto header = r.header("X-Janus-Status");
  if (!header) return r.status == 200 ? Outcome::kUnknown : Outcome::kError;
  auto status = wire::parse_status_header(*header);
  if (!status) return Outcome::kUnknown;
  if (*status == wire::ResponseStatus::kDefaultReply) return Outcome::kDefault;
  if (*status != wire::ResponseStatus::kOk) return Outcome::kError;
  if (r.status != 200) return Outcome::kUnknown;
  if (r.body == "TRUE") return Outcome::kTrue;
  if (r.body == "FALSE") return Outcome::kFalse;
  return Outcome::kUnknown;
}

Outcome classify(const Result<wire::QosResponse>& reply) {
  if (!reply.ok()) return Outcome::kError;
  switch (reply.value().status) {
    case wire::ResponseStatus::kOk:
      return reply.value().allowed ? Outcome::kTrue : Outcome::kFalse;
    case wire::ResponseStatus::kDefaultReply:
      return Outcome::kDefault;
    case wire::ResponseStatus::kMalformed:
    case wire::ResponseStatus::kOverloaded:
    case wire::ResponseStatus::kStaleEpoch:
      return Outcome::kError;
  }
  return Outcome::kUnknown;
}

double percentile_us(std::vector<std::uint32_t> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  const std::uint32_t v = samples[idx];
  if (v == kFailedNs) return INFINITY;
  return static_cast<double>(v) / 1000.0;
}

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

Status write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Error("cannot write " + path);
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans) {
      std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRIu64 "\t%" PRIu64 "\n",
                   s.id, s.parent, log.names[s.name].c_str(), s.start_ns,
                   s.end_ns);
    }
  }
  const bool ok = std::fflush(f) == 0 && !std::ferror(f);
  std::fclose(f);
  if (!ok) return Error("short write to " + path);
  return Status::success();
}

void Json::sep(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  if (!key.empty()) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::begin(std::string_view key) {
  sep(key);
  out_ += '{';
  first_ = true;
  return *this;
}

Json& Json::end() {
  out_ += '}';
  first_ = false;
  return *this;
}

Json& Json::num(std::string_view key, double v) {
  sep(key);
  if (!std::isfinite(v)) {
    out_ += "null";  // e.g. a percentile that fell on a failed request
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
  return *this;
}

Json& Json::num(std::string_view key, std::uint64_t v) {
  sep(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::arr(std::string_view key, const std::vector<double>& v) {
  sep(key);
  out_ += '[';
  first_ = true;
  for (double x : v) num({}, x);
  out_ += ']';
  first_ = false;
  return *this;
}

Json& Json::boolean(std::string_view key, bool v) {
  sep(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::str(std::string_view key, std::string_view v) {
  sep(key);
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

Status write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Error("cannot write " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) return Error("short write to " + path);
  return Status::success();
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--") || i + 1 >= argc) {
      error_ = "expected --name value, got '" + std::string(arg) + "'";
      return;
    }
    values_[std::string(arg.substr(2))] = argv[++i];
  }
}

std::optional<std::string> Args::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::str(const std::string& name,
                      const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double Args::num(const std::string& name, double fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  return parse_double(*v).value_or(fallback);
}

Result<Workload> workload_from(const Args& args) {
  auto seed = parse_u64(args.str("seed", "1"));
  if (!seed) return Error("--seed must be an unsigned 64-bit integer");
  return Workload::make(args.str("workload", ""), *seed);
}

std::optional<net::SockAddr> Args::addr(const std::string& name) const {
  auto v = get(name);
  if (!v) return std::nullopt;
  auto parsed = net::SockAddr::parse(*v);
  if (!parsed.ok()) return std::nullopt;
  return parsed.value();
}

}  // namespace janus::perfbench
