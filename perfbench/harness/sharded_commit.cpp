// sharded_commit: one thread per client, each with its own TCP connection
// and its own 32 KiB int32 segment. Every write critical section overwrites
// a seeded 8 KiB run with incompressible values; every fourth commit is
// followed by a read critical section that checks the whole segment. The
// primary journals every commit (WAL) in a checkpoint directory,
// checkpoints every kCheckpointEvery versions and replicates at rf=1 to an
// in-process replica. Translation is the isomorphic memcpy path, so the
// time sits in framing, store apply, the payload codec, the WAL and
// replication.
//
// The benchmark keeps the disk out of the figures. The primary's journal
// is written but not fdatasync'd per commit (Sync::kNone; the death of the
// process alone still loses nothing), and checkpoints, which do sync, are
// rare. The replica keeps no journal: it never checkpoints, so its journal
// would grow by every commit's bytes until the kernel wrote them back. On
// a 4-vCPU KVM guest whose disk other tenants share, an fdatasync took
// from 0.1 ms to several ms depending on the hour, and with group commit
// (kBatch) the figures followed the disk, not the program.
#include <cstring>
#include <thread>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "server/replication.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/rand.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kInts = 8192;  // 32 KiB
constexpr uint32_t kRun = 2048;   // 8 KiB
constexpr uint32_t kCheckpointEvery = 1024;
constexpr int kReadEvery = 4;
constexpr int kWarmupCommits = 64;

std::string segment_name(int shard) {
  return "bench/shard" + std::to_string(shard);
}

class ShardedCommit final : public Workload {
 public:
  explicit ShardedCommit(const Env& env) : env_(env) {}

  ~ShardedCommit() override { teardown(); }

  const char* loop() const override { return "closed"; }
  const char* wal_sync() const override { return "none"; }
  uint64_t rss_commits() const override { return 20000; }

  void setup() override {
    replica_ = std::make_unique<iw::server::SegmentServer>(
        iw::server::SegmentServer::Options{});
    replica_core_ = std::make_unique<TimingCore>(*replica_, SpanKind::kReplica);
    replicator_ = std::make_shared<iw::server::WalReplicator>(
        iw::server::WalReplicator::Options{});
    replicator_->add_replica("replica", [core = replica_core_.get()] {
      return std::make_shared<iw::InProcChannel>(*core);
    });

    primary_ = std::make_unique<iw::server::SegmentServer>(primary_options());
    primary_core_ = std::make_unique<TimingCore>(*primary_, SpanKind::kServer);
    tcp_ = std::make_unique<iw::TcpServer>(*primary_core_, 0);

    shards_.resize(static_cast<size_t>(env_.clients));
    for (int t = 0; t < env_.clients; ++t) {
      Shard& s = shards_[static_cast<size_t>(t)];
      s.rng = iw::SplitMix64(env_.seed * 0x100 + static_cast<uint64_t>(t));
      s.client = connect();
      s.seg = s.client->open_segment(segment_name(t));
      s.client->write_lock(s.seg);
      s.data = static_cast<int32_t*>(s.client->malloc_block(
          s.seg,
          s.client->types().array_of(
              s.client->types().primitive(iw::PrimitiveKind::kInt32), kInts),
          "data"));
      s.model.resize(kInts);
      for (int32_t& v : s.model) v = static_cast<int32_t>(s.rng());
      std::memcpy(s.data, s.model.data(), sizeof(int32_t) * kInts);
      s.client->write_unlock(s.seg);
      s.acked = s.seg->version();
    }
    Phase warm;
    for (Shard& s : shards_) {
      for (int i = 0; i < kWarmupCommits; ++i) cycle(s, i, warm);
    }
    if (warm.failed != 0) throw iw::Error(iw::ErrorCode::kState, "warm-up failed");
  }

  Phase run(double seconds) override {
    int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
    std::vector<Phase> phases(shards_.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < shards_.size(); ++t) {
      threads.emplace_back([this, t, deadline, &phases] {
        Phase& p = phases[t];
        try {
          for (int i = 0; now_ns() < deadline; ++i) cycle(shards_[t], i, p);
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
    std::vector<std::string> names;
    for (size_t t = 0; t < shards_.size(); ++t) {
      add_client(c, *shards_[t].client);
      names.push_back(segment_name(static_cast<int>(t)));
    }
    add_server(c, *primary_, names);
    add_replicator(c, *replicator_);
    return c;
  }

  uint64_t verify(std::map<std::string, double>& extra) override {
    uint64_t bad = 0;
    // The replica holds every acknowledged version (rf=1 gates the ack).
    for (size_t t = 0; t < shards_.size(); ++t) {
      std::string name = segment_name(static_cast<int>(t));
      bad += primary_->segment_version(name) != shards_[t].acked;
      bad += replica_->segment_version(name) != shards_[t].acked;
    }
    // A fresh client reads every segment's final contents.
    bad += check_contents(*connect());

    // Kill the serving stack without a final checkpoint, then recover the
    // primary's directory: every acknowledged version must come back.
    teardown();
    iw::server::SegmentServer::Options opts = primary_options();
    opts.replicator = nullptr;
    iw::server::SegmentServer recovered(opts);
    int64_t t0 = now_ns();
    recovered.recover();
    extra["server.recover_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
    for (size_t t = 0; t < shards_.size(); ++t) {
      bad += recovered.segment_version(segment_name(static_cast<int>(t))) !=
             shards_[t].acked;
    }
    iw::Client reader([&](const std::string&) {
      return std::make_shared<iw::InProcChannel>(recovered);
    });
    bad += check_contents(reader);
    return bad;
  }

 private:
  struct Shard {
    iw::SplitMix64 rng{0};
    std::unique_ptr<iw::Client> client;
    iw::ClientSegment* seg = nullptr;
    int32_t* data = nullptr;
    std::vector<int32_t> model;
    uint32_t acked = 0;  ///< version returned by the last commit
  };

  iw::server::SegmentServer::Options primary_options() const {
    iw::server::SegmentServer::Options o;
    o.checkpoint_dir = env_.scratch + "/primary";
    o.checkpoint_every = kCheckpointEvery;
    o.wal_sync = iw::server::WriteAheadLog::Sync::kNone;
    o.replicator = replicator_;
    return o;
  }

  std::unique_ptr<iw::Client> connect() const {
    uint16_t port = tcp_->port();
    return std::make_unique<iw::Client>([port](const std::string&) {
      return std::make_shared<TimingChannel>(
          std::make_shared<iw::TcpClientChannel>(port));
    });
  }

  /// One commit, plus a checked read every kReadEvery-th cycle.
  void cycle(Shard& s, int i, Phase& p) {
    uint32_t offset = static_cast<uint32_t>(s.rng.below(kInts - kRun + 1));
    std::vector<int32_t> values(kRun);
    for (int32_t& v : values) v = static_cast<int32_t>(s.rng());

    ++p.attempted;
    int64_t t0 = now_ns();
    TimedLock::run(LockOp::kWriteLock, [&] { s.client->write_lock(s.seg); });
    std::memcpy(s.data + offset, values.data(), sizeof(int32_t) * kRun);
    TimedLock::run(LockOp::kWriteUnlock, [&] { s.client->write_unlock(s.seg); });
    p.add_commit(t0);
    std::memcpy(s.model.data() + offset, values.data(), sizeof(int32_t) * kRun);
    if (s.seg->version() <= s.acked) ++p.failed;
    s.acked = s.seg->version();

    if (i % kReadEvery != kReadEvery - 1) return;
    ++p.attempted;
    int64_t t1 = now_ns();
    TimedLock::run(LockOp::kReadLock, [&] { s.client->read_lock(s.seg); });
    bool ok = std::memcmp(s.data, s.model.data(), sizeof(int32_t) * kInts) == 0;
    TimedLock::run(LockOp::kReadUnlock, [&] { s.client->read_unlock(s.seg); });
    p.add_read(t1);
    if (!ok) ++p.failed;
  }

  uint64_t check_contents(iw::Client& reader) const {
    uint64_t bad = 0;
    for (size_t t = 0; t < shards_.size(); ++t) {
      iw::ClientSegment* seg = reader.open_segment(segment_name(static_cast<int>(t)), false);
      reader.read_lock(seg);
      const iw::client::BlockHeader* block = seg->heap().find_by_name("data");
      bad += block == nullptr ||
             std::memcmp(block->data(), shards_[t].model.data(),
                         sizeof(int32_t) * kInts) != 0;
      reader.read_unlock(seg);
    }
    return bad;
  }

  /// Clients first, then the transport, the primary, its replication links
  /// and last the replica they point into.
  void teardown() {
    for (Shard& s : shards_) s.client.reset();
    if (tcp_) tcp_->shutdown();
    tcp_.reset();
    primary_core_.reset();
    primary_.reset();
    if (replicator_) replicator_->shutdown();
    replicator_.reset();
    replica_core_.reset();
    replica_.reset();
  }

  Env env_;
  std::unique_ptr<iw::server::SegmentServer> replica_;
  std::unique_ptr<TimingCore> replica_core_;
  std::shared_ptr<iw::server::WalReplicator> replicator_;
  std::unique_ptr<iw::server::SegmentServer> primary_;
  std::unique_ptr<TimingCore> primary_core_;
  std::unique_ptr<iw::TcpServer> tcp_;
  std::vector<Shard> shards_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded_commit(const Env& env) {
  return std::make_unique<ShardedCommit>(env);
}

}  // namespace perfbench
