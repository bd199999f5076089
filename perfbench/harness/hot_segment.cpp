// hot_segment: an open loop of one client per thread, each over its own TCP
// connection, all on one 64 KiB segment of checksummed records. Each thread
// follows a fixed-rate seeded schedule of 90% reads (16 random records) and
// 10% writes (one record), with reader-lock caching at its default. Every
// operation is timed from when it was due. Reads beside writes on one
// segment drive the client lock cache, kRevokeRead revocation,
// notifications and the server's diff cache, with small diffs.
//
// Not among BENCHMARK.json's workloads yet: when a client that holds a
// cached read grant asks for the write lock while another writer is
// draining cached readers, its kRevokeAck queues behind its own blocked
// kAcquireWrite on the same connection, and the draining writer waits out
// the server's revocation deadline (2 s). At the offered rates tried (400
// to 4000 ops/s) the loop then falls behind; ops due but not started by the
// end count as failed.
#include <sys/prctl.h>
#include <ctime>

#include <thread>

#include "net/tcp.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/rand.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kRecords = 1024;  // 64 B each: 64 KiB
constexpr uint32_t kDataWords = 12;
constexpr int kReadRecords = 16;
constexpr double kWriteShare = 0.10;
/// Aggregate offered rate, ops/s.
constexpr double kRate = 4000;
constexpr int kWarmupOps = 50;
const std::string kUrl = "bench/hot";

struct Record {
  int32_t key;
  int32_t version;
  int32_t writer;
  int32_t data[kDataWords];
  uint32_t check;
};
static_assert(sizeof(Record) == 64);

uint32_t checksum(const Record& r) {
  uint32_t h = 2166136261u;  // FNV-1a over the words before `check`
  auto mix = [&h](int32_t v) { h = (h ^ static_cast<uint32_t>(v)) * 16777619u; };
  mix(r.key);
  mix(r.version);
  mix(r.writer);
  for (int32_t v : r.data) mix(v);
  return h;
}

const iw::TypeDescriptor* record_type(iw::TypeRegistry& reg) {
  const iw::TypeDescriptor* i32 = reg.primitive(iw::PrimitiveKind::kInt32);
  return reg.array_of(reg.struct_builder("record")
                          .field("key", i32)
                          .field("version", i32)
                          .field("writer", i32)
                          .field("data", reg.array_of(i32, kDataWords))
                          .field("check", i32)
                          .finish(),
                      kRecords);
}

void sleep_until(int64_t due_ns) {
  timespec ts{static_cast<time_t>(due_ns / 1'000'000'000),
              static_cast<long>(due_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

class HotSegment final : public Workload {
 public:
  explicit HotSegment(const Env& env)
      : env_(env), core_(server_, SpanKind::kServer) {}

  ~HotSegment() override {
    for (Peer& r : peers_) r.client.reset();
    if (tcp_) tcp_->shutdown();
  }

  const char* loop() const override { return "open"; }
  double offered_rate() const override { return kRate; }
  uint64_t rss_commits() const override { return 4000; }

  void setup() override {
    tcp_ = std::make_unique<iw::TcpServer>(core_, 0);
    uint16_t port = tcp_->port();
    peers_.resize(static_cast<size_t>(env_.clients));
    iw::SplitMix64 fill(env_.seed);
    for (size_t t = 0; t < peers_.size(); ++t) {
      Peer& r = peers_[t];
      r.id = static_cast<int32_t>(t);
      r.rng = iw::SplitMix64(env_.seed * 0x100 + t);
      r.seen.assign(kRecords, 0);
      r.client = std::make_unique<iw::Client>([port](const std::string&) {
        return std::make_shared<TimingChannel>(
            std::make_shared<iw::TcpClientChannel>(port));
      });
      r.seg = r.client->open_segment(kUrl);
      if (t == 0) {
        r.client->write_lock(r.seg);
        auto* recs = static_cast<Record*>(r.client->malloc_block(
            r.seg, record_type(r.client->types()), "records"));
        for (uint32_t i = 0; i < kRecords; ++i) {
          Record& rec = recs[i];
          rec.key = static_cast<int32_t>(i);
          rec.version = 1;
          rec.writer = 0;
          for (int32_t& v : rec.data) v = static_cast<int32_t>(fill());
          rec.check = checksum(rec);
        }
        r.client->write_unlock(r.seg);
      } else {
        r.client->read_lock(r.seg);
        r.client->read_unlock(r.seg);
      }
      r.records = reinterpret_cast<Record*>(
          r.seg->heap().find_by_name("records")->data());
    }
    Phase warm;
    for (int i = 0; i < kWarmupOps; ++i) {
      for (Peer& r : peers_) operate(r, next_op(r), 0, warm);
    }
    if (warm.failed != 0) throw iw::Error(iw::ErrorCode::kState, "warm-up failed");
  }

  Phase run(double seconds) override {
    int64_t start = now_ns();
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    auto interval = static_cast<int64_t>(1e9 * static_cast<double>(peers_.size()) / kRate);
    std::vector<Phase> phases(peers_.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < peers_.size(); ++t) {
      threads.emplace_back([&, t] {
        // Wake at the due time, not up to the default 50 us timer slack late.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        Peer& r = peers_[t];
        Phase& p = phases[t];
        auto offset = static_cast<int64_t>(r.rng.uniform() * static_cast<double>(interval));
        try {
          for (int64_t due = start + offset; due < deadline; due += interval) {
            Op op = next_op(r);
            if (now_ns() >= deadline) {
              // Due within the run but never started: it missed any limit.
              ++p.attempted;
              ++p.failed;
              continue;
            }
            if (now_ns() < due) sleep_until(due);
            p.late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
            operate(r, op, due, p);
          }
        } catch (const iw::Error&) {
          ++p.failed;
        }
      });
    }
    for (auto& th : threads) th.join();
    Phase all;
    for (const Phase& p : phases) all.merge(p);
    return all;
  }

  Counters counters() const override {
    Counters c;
    for (const Peer& r : peers_) add_client(c, *r.client);
    add_server(c, server_, {kUrl});
    return c;
  }

  uint64_t verify(std::map<std::string, double>&) override {
    // Every client converges on the same valid records.
    uint64_t bad = 0;
    std::vector<int32_t> versions;
    for (Peer& r : peers_) {
      r.client->read_lock(r.seg);
      for (uint32_t i = 0; i < kRecords; ++i) {
        const Record& rec = r.records[i];
        bad += rec.check != checksum(rec) || rec.key != static_cast<int32_t>(i);
        if (versions.size() < kRecords) {
          versions.push_back(rec.version);
        } else {
          bad += versions[i] != rec.version;
        }
      }
      r.client->read_unlock(r.seg);
    }
    return bad;
  }

 private:
  struct Peer {
    int32_t id = 0;
    iw::SplitMix64 rng{0};
    std::unique_ptr<iw::Client> client;
    iw::ClientSegment* seg = nullptr;
    Record* records = nullptr;
    std::vector<int32_t> seen;  ///< newest version this client read, per record
  };

  struct Op {
    bool write = false;
    uint32_t index[kReadRecords] = {};
    int32_t data[kDataWords] = {};
  };

  static Op next_op(Peer& r) {
    Op op;
    op.write = r.rng.uniform() < kWriteShare;
    for (uint32_t& i : op.index) i = static_cast<uint32_t>(r.rng.below(kRecords));
    if (op.write) {
      for (int32_t& v : op.data) v = static_cast<int32_t>(r.rng());
    }
    return op;
  }

  /// Runs one critical section; latency is measured from `due` (0: from
  /// the start of the call).
  void operate(Peer& r, const Op& op, int64_t due, Phase& p) {
    ++p.attempted;
    int64_t t0 = due != 0 ? due : now_ns();
    bool ok = true;
    if (op.write) {
      TimedLock::run(LockOp::kWriteLock, [&] { r.client->write_lock(r.seg); });
      Record& rec = r.records[op.index[0]];
      ok = rec.check == checksum(rec) && rec.version >= r.seen[op.index[0]];
      rec.version += 1;
      rec.writer = r.id;
      std::copy(std::begin(op.data), std::end(op.data), rec.data);
      rec.check = checksum(rec);
      r.seen[op.index[0]] = rec.version;
      TimedLock::run(LockOp::kWriteUnlock, [&] { r.client->write_unlock(r.seg); });
      p.add_commit(t0);
    } else {
      TimedLock::run(LockOp::kReadLock, [&] { r.client->read_lock(r.seg); });
      for (uint32_t i : op.index) {
        const Record& rec = r.records[i];
        ok = ok && rec.check == checksum(rec) && rec.version >= r.seen[i];
        r.seen[i] = rec.version;
      }
      TimedLock::run(LockOp::kReadUnlock, [&] { r.client->read_unlock(r.seg); });
      p.add_read(t0);
    }
    if (!ok) ++p.failed;
  }

  Env env_;
  iw::server::SegmentServer server_;
  TimingCore core_;
  std::unique_ptr<iw::TcpServer> tcp_;
  std::vector<Peer> peers_;
};

}  // namespace

std::unique_ptr<Workload> make_hot_segment(const Env& env) {
  return std::make_unique<HotSegment>(env);
}

}  // namespace perfbench
