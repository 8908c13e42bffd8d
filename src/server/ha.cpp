#include "server/ha.hpp"

#include "common/logging.hpp"
#include "db/serialize.hpp"

namespace janus::server {

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x4A534E50;  // "JSNP"
}

std::vector<std::uint8_t> serialize_table(core::ShardedQosTable& table) {
  auto entries = table.snapshot();
  db::ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [key, entry] : entries) {
    w.str(key);
    w.f64(entry.capacity());
    w.f64(entry.refill_per_sec());
    w.f64(entry.bucket.credit());
    w.u8(entry.is_default() ? 1 : 0);
  }
  return w.take();
}

Result<std::size_t> restore_table(core::ShardedQosTable& table,
                                  std::span<const std::uint8_t> bytes,
                                  TimePoint now) {
  db::ByteReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t count = 0;
  if (!r.u32(magic) || magic != kSnapshotMagic) {
    return Error("snapshot: bad magic");
  }
  if (!r.u32(count)) return Error("snapshot: truncated count");

  std::vector<std::pair<std::string, core::QosEntry>> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key;
    double capacity = 0;
    double refill = 0;
    double credit = 0;
    std::uint8_t is_default = 0;
    if (!r.str(key) || !r.f64(capacity) || !r.f64(refill) || !r.f64(credit) ||
        !r.u8(is_default)) {
      return Error("snapshot: truncated entry");
    }
    if (!core::LeakyBucket::valid(capacity, refill, credit)) {
      return Error("snapshot: bad entry value");
    }
    entries.emplace_back(std::move(key),
                         core::QosEntry::make(capacity, refill, credit, now,
                                              is_default == 1));
  }
  if (!r.at_end()) return Error("snapshot: trailing bytes");
  table.restore(std::move(entries));
  return static_cast<std::size_t>(count);
}

Result<std::unique_ptr<HaSnapshotServer>> HaSnapshotServer::start(
    const net::SockAddr& listen, core::AdmissionController& admission) {
  auto listener = net::TcpListener::listen(listen);
  if (!listener.ok()) return Error(listener.error().message);
  auto addr = listener.value().local_addr();
  if (!addr.ok()) return Error(addr.error().message);
  return std::unique_ptr<HaSnapshotServer>(new HaSnapshotServer(
      std::move(listener).take(), addr.value(), admission));
}

HaSnapshotServer::HaSnapshotServer(net::TcpListener listener,
                                   net::SockAddr addr,
                                   core::AdmissionController& admission)
    : listener_(std::move(listener)),
      addr_(std::move(addr)),
      admission_(admission),
      thread_([this] { loop(); }) {}

HaSnapshotServer::~HaSnapshotServer() { stop(); }

void HaSnapshotServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  if (thread_.joinable()) thread_.join();
}

void HaSnapshotServer::loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto conn = listener_.accept(millis(50));
    if (!conn.ok()) {
      JLOG_WARN("ha: accept failed: %s", conn.error().message.c_str());
      continue;
    }
    if (!conn.value()) continue;
    net::TcpStream stream = std::move(*conn.value());
    auto payload = serialize_table(admission_.table());
    // Length-prefix so the slave knows when the snapshot is complete.
    db::ByteWriter header;
    header.u32(static_cast<std::uint32_t>(payload.size()));
    if (stream.write_all(header.bytes()).ok() &&
        stream.write_all(payload).ok()) {
      served_.fetch_add(1, std::memory_order_relaxed);
    }
    stream.shutdown_write();
  }
}

HaReplicaClient::HaReplicaClient(net::SockAddr master,
                                 core::AdmissionController& admission,
                                 Clock& clock, Duration interval,
                                 std::function<void()> on_restored)
    : master_(std::move(master)),
      admission_(admission),
      clock_(clock),
      on_restored_(std::move(on_restored)),
      task_(interval, [this] {
        if (replicate_once().ok()) {
          ok_.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed_.fetch_add(1, std::memory_order_relaxed);
        }
      }) {}

Result<std::size_t> HaReplicaClient::replicate_once() {
  auto stream = net::TcpStream::connect(master_, millis(500));
  if (!stream.ok()) return Error(stream.error().message);
  net::TcpStream conn = std::move(stream).take();

  std::vector<std::uint8_t> data;
  std::uint8_t buf[16 * 1024];
  for (;;) {
    auto n = conn.read_some(buf, millis(500));
    if (!n.ok()) return Error(n.error().message);
    if (!n.value()) return Error("ha: snapshot read timeout");
    if (*n.value() == 0) break;  // master closed: snapshot complete
    data.insert(data.end(), buf, buf + *n.value());
  }
  if (data.size() < 4) return Error("ha: short snapshot");
  std::uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) expected |= std::uint32_t{data[i]} << (8 * i);
  if (data.size() - 4 != expected) return Error("ha: truncated snapshot");

  auto restored = restore_table(admission_.table(),
                               std::span(data).subspan(4), clock_.now());
  if (restored.ok() && on_restored_) on_restored_();
  return restored;
}

}  // namespace janus::server
