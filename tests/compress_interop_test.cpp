// Interop tests for payload-compression negotiation: a mixed fleet must
// converge byte-for-byte. Peers that predate compression (no hello
// handshake at all, or a hello without the feature bit) share segments
// with negotiated peers against one compressing server, and a compressing
// client degrades cleanly against a server with compression disabled.
// Both byte directions are covered: commits (client -> server) and
// updates (server -> client).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "interweave/interweave.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

// One request/response pair seen by a RecordingChannel.
struct RecordedCall {
  MsgType type;
  std::vector<uint8_t> request;
  std::vector<uint8_t> response;
};
using CallLog = std::vector<RecordedCall>;

// An in-process session that keeps a copy of every request and response
// payload, so a test can compare the bytes two peers saw.
class RecordingChannel final : public ClientChannel {
 public:
  RecordingChannel(ServerCore& core, std::shared_ptr<CallLog> log)
      : inner_(core), log_(std::move(log)) {}

  using ClientChannel::call;
  Frame call(MsgType type, Buffer& payload) override {
    std::vector<uint8_t> request(payload.data(),
                                 payload.data() + payload.size());
    Frame resp = inner_.call(type, payload);
    log_->push_back({type, std::move(request), resp.payload});
    return resp;
  }
  void set_notify_handler(std::function<void(const Frame&)> fn) override {
    inner_.set_notify_handler(std::move(fn));
  }
  uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  uint64_t bytes_received() const override { return inner_.bytes_received(); }
  void shutdown() noexcept override { inner_.shutdown(); }

 private:
  InProcChannel inner_;
  std::shared_ptr<CallLog> log_;
};

// The last recorded call of `type`.
const RecordedCall& last_call(const CallLog& log, MsgType type) {
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->type == type) return *it;
  }
  throw Error(ErrorCode::kNotFound, "no such call recorded");
}

// Bytes of a wire section starting at `in`: the whole kLz envelope, or
// just the method byte of a kRaw section.
std::vector<uint8_t> section_at(BufReader in) {
  const uint8_t* begin = in.cursor();
  std::vector<uint8_t> scratch;
  if (!read_compressed_section(in, scratch)) return {payload_method::kRaw};
  return {begin, in.cursor()};
}

// The diff section a negotiated writer committed (kReleaseWrite request:
// segment name, then the section).
std::vector<uint8_t> committed_section(const CallLog& log) {
  const RecordedCall& call = last_call(log, MsgType::kReleaseWrite);
  BufReader in(call.request.data(), call.request.size());
  in.read_lp_view();
  return section_at(in);
}

// The diff section of the last kAcquireReadResp: status byte and type
// table, then the section.
std::vector<uint8_t> update_section(const CallLog& log) {
  const RecordedCall& call = last_call(log, MsgType::kAcquireRead);
  BufReader in(call.response.data(), call.response.size());
  EXPECT_EQ(in.read_u8(), 1) << "the read returned no update";
  const uint32_t n_types = in.read_u32();
  for (uint32_t i = 0; i < n_types; ++i) {
    in.read_u32();
    in.skip(in.read_u32());
  }
  return section_at(in);
}

// Each test pins a specific old/new peer mix through the options alone.
class CompressInterop : public ::testing::Test {
 protected:
  static std::unique_ptr<Client> make_client(server::SegmentServer& core,
                                             Client::Options opts = {}) {
    return std::make_unique<Client>(
        [&core](const std::string&) {
          return std::make_shared<InProcChannel>(core);
        },
        opts);
  }

  // A peer from before the compression feature existed: no reconnect
  // supervisor means no hello handshake, so it speaks the raw byte
  // stream in both directions regardless of what the server supports.
  static Client::Options pre_compression_peer() {
    Client::Options o;
    o.auto_reconnect = false;
    return o;
  }

  // A negotiated peer whose calls land in `log`.
  static std::unique_ptr<Client> make_recorded_client(
      server::SegmentServer& core, std::shared_ptr<CallLog> log) {
    return std::make_unique<Client>(
        [&core, log](const std::string&) {
          return std::make_shared<RecordingChannel>(core, log);
        },
        Client::Options{});
  }

  static const TypeDescriptor* int_array(Client& c, uint32_t n) {
    return c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), n);
  }
};

constexpr int kInts = 1024;  // 4 KiB of near-constant data: compressible

TEST_F(CompressInterop, PreCompressionPeersAgainstCompressingServer) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto writer = make_client(core, pre_compression_peer());
  auto reader = make_client(core, pre_compression_peer());

  // Old peer -> compressing server: the commit arrives as a bare diff.
  ClientSegment* ws = writer->open_segment("host/legacy");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 7;
  writer->write_unlock(ws);

  // Compressing server -> old peer: the update goes out as a bare diff.
  ClientSegment* rs = reader->open_segment("host/legacy");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], 7) << "at " << i;
  reader->read_unlock(rs);

  // Neither direction may have used the envelope on the wire.
  EXPECT_EQ(writer->stats().diffs_compressed, 0u);
  EXPECT_EQ(reader->stats().diffs_compressed, 0u);
  EXPECT_EQ(core.stats().updates_compressed, 0u);
}

TEST_F(CompressInterop, HelloWithoutFeatureBitStaysRaw) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  // This peer performs the hello handshake (it has the reconnect
  // supervisor) but never announces the compression bit.
  Client::Options copts;
  copts.compress_payloads = false;
  auto writer = make_client(core, copts);
  auto reader = make_client(core, copts);

  ClientSegment* ws = writer->open_segment("host/nobit");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = i & 3;
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/nobit");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], i & 3) << "at " << i;
  reader->read_unlock(rs);

  EXPECT_EQ(writer->stats().diffs_compressed, 0u);
  EXPECT_EQ(core.stats().updates_compressed, 0u);
}

TEST_F(CompressInterop, CompressingClientAgainstOldServer) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = false;  // server predates the feature
  server::SegmentServer core(sopts);

  auto writer = make_client(core);  // announces compression, gets refused
  auto reader = make_client(core);

  ClientSegment* ws = writer->open_segment("host/oldsrv");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 42;
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/oldsrv");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], 42) << "at " << i;
  reader->read_unlock(rs);

  EXPECT_EQ(writer->stats().diffs_compressed, 0u);
  EXPECT_EQ(core.stats().updates_compressed, 0u);
  EXPECT_EQ(core.stats().commits_compressed, 0u);
}

TEST_F(CompressInterop, NegotiatedPairCompressesBothDirections) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto writer = make_client(core);
  auto reader = make_client(core);

  ClientSegment* ws = writer->open_segment("host/both");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 1;
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/both");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], 1) << "at " << i;
  reader->read_unlock(rs);

  // Client -> server: the 4 KiB constant diff shrank inside the envelope.
  EXPECT_GT(writer->stats().diffs_compressed, 0u);
  // Server -> client: the reader's update shipped compressed, and the
  // wire accounting shows the reduction.
  auto stats = core.stats();
  EXPECT_GT(stats.updates_compressed, 0u);
  EXPECT_LT(stats.update_wire_bytes, stats.update_raw_bytes);
}

TEST_F(CompressInterop, MixedFleetSharesOneSegment) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto modern = make_client(core);
  auto legacy = make_client(core, pre_compression_peer());

  // Modern writes, legacy reads.
  ClientSegment* ms = modern->open_segment("host/mixed");
  modern->write_lock(ms);
  auto* d = static_cast<int32_t*>(
      modern->malloc_block(ms, int_array(*modern, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 5;
  modern->write_unlock(ms);

  ClientSegment* ls = legacy->open_segment("host/mixed");
  legacy->read_lock(ls);
  auto* lb = ls->heap().find_by_name("data");
  ASSERT_NE(lb, nullptr);
  auto* ld = reinterpret_cast<const int32_t*>(lb->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(ld[i], 5) << "at " << i;
  legacy->read_unlock(ls);

  // Legacy writes back, modern reads: the server re-encodes per session,
  // so the same commit reaches one peer raw and the other compressed.
  legacy->write_lock(ls);
  auto* lw = const_cast<int32_t*>(
      reinterpret_cast<const int32_t*>(ls->heap().find_by_name("data")->data()));
  for (int i = 0; i < kInts; ++i) lw[i] = 6;
  legacy->write_unlock(ls);

  modern->read_lock(ms);
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(d[i], 6) << "at " << i;
  modern->read_unlock(ms);

  EXPECT_EQ(legacy->stats().diffs_compressed, 0u);
  EXPECT_GT(modern->stats().diffs_compressed, 0u);
  EXPECT_GT(core.stats().updates_compressed, 0u);
}

TEST_F(CompressInterop, IncompressibleDiffsStayRawInsideTheEnvelope) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto writer = make_client(core);
  auto reader = make_client(core);

  // A high-entropy payload (xorshift stream) defeats the LZ pass; the
  // per-frame decision must fall back to the raw method byte and the
  // data must still round-trip through negotiated channels.
  ClientSegment* ws = writer->open_segment("host/entropy");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "noise"));
  uint32_t x = 0x9e3779b9u;
  for (int i = 0; i < kInts; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    d[i] = static_cast<int32_t>(x);
  }
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/entropy");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("noise");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  uint32_t y = 0x9e3779b9u;
  for (int i = 0; i < kInts; ++i) {
    y ^= y << 13;
    y ^= y >> 17;
    y ^= y << 5;
    ASSERT_EQ(rd[i], static_cast<int32_t>(y)) << "at " << i;
  }
  reader->read_unlock(rs);

  EXPECT_EQ(writer->stats().diffs_compressed, 0u);
  EXPECT_EQ(core.stats().updates_compressed, 0u);
}

// ------------------------------------------------ diff-cache sections
//
// Each scenario first lets the readers catch up with one commit, so that
// the next commit's (from, to) diff is exactly what they ask for.

// Writes the xorshift stream seeded with `seed`: defeats the LZ pass.
void fill_noise(int32_t* d, uint32_t seed) {
  for (int i = 0; i < kInts; ++i) {
    seed ^= seed << 13;
    seed ^= seed >> 17;
    seed ^= seed << 5;
    d[i] = static_cast<int32_t>(seed);
  }
}

// Read-locks `seg` and checks that block "data" equals `want`.
void expect_data(Client& c, ClientSegment* seg, const int32_t* want) {
  c.read_lock(seg);
  const auto* block = seg->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(std::memcmp(block->data(), want, kInts * sizeof(int32_t)), 0);
  c.read_unlock(seg);
}

TEST_F(CompressInterop, ReaderGetsTheCommittersEnvelopeVerbatim) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);
  auto wlog = std::make_shared<CallLog>();
  auto rlog = std::make_shared<CallLog>();
  auto writer = make_recorded_client(core, wlog);
  auto reader = make_recorded_client(core, rlog);

  ClientSegment* ws = writer->open_segment("host/reuse");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = i & 7;
  writer->write_unlock(ws);
  ClientSegment* rs = reader->open_segment("host/reuse");
  expect_data(*reader, rs, d);

  writer->write_lock(ws);
  for (int i = 0; i < kInts; ++i) d[i] = (i * 3) & 15;
  writer->write_unlock(ws);
  const std::vector<uint8_t> committed = committed_section(*wlog);
  ASSERT_EQ(committed[0], payload_method::kLz);

  const auto before = core.stats();
  expect_data(*reader, rs, d);
  const auto after = core.stats();
  // The reader's section is the writer's, byte for byte, and the server
  // served it from the cache without running the compressor.
  EXPECT_EQ(update_section(*rlog), committed);
  EXPECT_EQ(after.update_sections_reused - before.update_sections_reused, 1u);
  EXPECT_EQ(after.updates_compressed - before.updates_compressed, 1u);
  EXPECT_EQ(after.update_wire_bytes - before.update_wire_bytes,
            committed.size());
}

TEST_F(CompressInterop, OldPeerReadsRawBytesOfAnEnvelopedDiff) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);
  auto wlog = std::make_shared<CallLog>();
  auto rlog = std::make_shared<CallLog>();
  auto writer = make_recorded_client(core, wlog);
  auto legacy = make_client(core, pre_compression_peer());
  auto modern = make_recorded_client(core, rlog);

  ClientSegment* ws = writer->open_segment("host/oldreader");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 3;
  writer->write_unlock(ws);
  ClientSegment* ls = legacy->open_segment("host/oldreader");
  ClientSegment* ms = modern->open_segment("host/oldreader");
  expect_data(*legacy, ls, d);
  expect_data(*modern, ms, d);

  writer->write_lock(ws);
  for (int i = 0; i < kInts; ++i) d[i] = 4;
  writer->write_unlock(ws);
  const std::vector<uint8_t> committed = committed_section(*wlog);
  ASSERT_EQ(committed[0], payload_method::kLz);

  // The old peer gets the bare diff out of the entry holding the envelope.
  auto before = core.stats();
  expect_data(*legacy, ls, d);
  auto after = core.stats();
  EXPECT_EQ(after.updates_compressed, before.updates_compressed);
  EXPECT_EQ(after.update_sections_reused, before.update_sections_reused);
  EXPECT_EQ(after.update_wire_bytes - before.update_wire_bytes,
            after.update_raw_bytes - before.update_raw_bytes);

  // The envelope is still there for the negotiated reader.
  before = after;
  expect_data(*modern, ms, d);
  after = core.stats();
  EXPECT_EQ(update_section(*rlog), committed);
  EXPECT_EQ(after.update_sections_reused - before.update_sections_reused, 1u);
}

TEST_F(CompressInterop, OldPeerCommitIsCompressedOnceForTwoReaders) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);
  auto legacy = make_client(core, pre_compression_peer());
  auto log1 = std::make_shared<CallLog>();
  auto log2 = std::make_shared<CallLog>();
  auto r1 = make_recorded_client(core, log1);
  auto r2 = make_recorded_client(core, log2);

  ClientSegment* ws = legacy->open_segment("host/oldwriter");
  legacy->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      legacy->malloc_block(ws, int_array(*legacy, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = i & 1;
  legacy->write_unlock(ws);
  ClientSegment* s1 = r1->open_segment("host/oldwriter");
  ClientSegment* s2 = r2->open_segment("host/oldwriter");
  expect_data(*r1, s1, d);
  expect_data(*r2, s2, d);

  // A raw commit says nothing about compressing: the first reader pays
  // for one compression, the second reuses it.
  legacy->write_lock(ws);
  for (int i = 0; i < kInts; ++i) d[i] = i & 3;
  legacy->write_unlock(ws);

  auto before = core.stats();
  expect_data(*r1, s1, d);
  auto after = core.stats();
  EXPECT_EQ(after.updates_compressed - before.updates_compressed, 1u);
  EXPECT_EQ(after.update_sections_reused, before.update_sections_reused);

  before = after;
  expect_data(*r2, s2, d);
  after = core.stats();
  EXPECT_EQ(after.updates_compressed - before.updates_compressed, 1u);
  EXPECT_EQ(after.update_sections_reused - before.update_sections_reused, 1u);

  const std::vector<uint8_t> first = update_section(*log1);
  EXPECT_EQ(first[0], payload_method::kLz);
  EXPECT_EQ(update_section(*log2), first);
}

TEST_F(CompressInterop, DeltaReadersBehindConvergeOnOneCompression) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);
  auto writer = make_client(core);
  auto log1 = std::make_shared<CallLog>();
  auto log2 = std::make_shared<CallLog>();
  auto r1 = make_recorded_client(core, log1);
  auto r2 = make_recorded_client(core, log2);

  ClientSegment* ws = writer->open_segment("host/delta");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 0;
  writer->write_unlock(ws);
  ClientSegment* s1 = r1->open_segment("host/delta");
  ClientSegment* s2 = r2->open_segment("host/delta");
  r1->set_coherence(s1, CoherencePolicy::delta(2));
  r2->set_coherence(s2, CoherencePolicy::delta(2));
  expect_data(*r1, s1, d);
  expect_data(*r2, s2, d);

  // Three commits, each touching a different quarter: the readers' diff
  // spans all three and is in no committer's cache entry.
  for (int round = 1; round <= 3; ++round) {
    writer->write_lock(ws);
    for (int i = round * kInts / 4; i < (round + 1) * kInts / 4; ++i) {
      d[i] = round;
    }
    writer->write_unlock(ws);
  }

  auto before = core.stats();
  expect_data(*r1, s1, d);
  auto after = core.stats();
  EXPECT_EQ(after.updates_compressed - before.updates_compressed, 1u);
  EXPECT_EQ(after.update_sections_reused, before.update_sections_reused);

  before = after;
  expect_data(*r2, s2, d);
  after = core.stats();
  EXPECT_EQ(after.update_sections_reused - before.update_sections_reused, 1u);

  const std::vector<uint8_t> first = update_section(*log1);
  EXPECT_EQ(first[0], payload_method::kLz);
  EXPECT_EQ(update_section(*log2), first);
  EXPECT_EQ(s1->version(), ws->version());
  EXPECT_EQ(s2->version(), ws->version());
}

TEST_F(CompressInterop, IncompressibleCommitIsNotCompressedAgain) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);
  auto wlog = std::make_shared<CallLog>();
  auto rlog = std::make_shared<CallLog>();
  auto writer = make_recorded_client(core, wlog);
  auto reader = make_recorded_client(core, rlog);

  ClientSegment* ws = writer->open_segment("host/doesnotpay");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  fill_noise(d, 0x9e3779b9u);
  writer->write_unlock(ws);
  ClientSegment* rs = reader->open_segment("host/doesnotpay");
  expect_data(*reader, rs, d);

  writer->write_lock(ws);
  fill_noise(d, 0x7f4a7c15u);
  writer->write_unlock(ws);
  ASSERT_EQ(committed_section(*wlog),
            std::vector<uint8_t>{payload_method::kRaw});

  // The committer's kRaw is the cached decision: no second attempt.
  const auto before = core.stats();
  expect_data(*reader, rs, d);
  const auto after = core.stats();
  EXPECT_EQ(update_section(*rlog), std::vector<uint8_t>{payload_method::kRaw});
  EXPECT_EQ(after.updates_compressed, before.updates_compressed);
  EXPECT_EQ(after.update_sections_reused - before.update_sections_reused, 1u);
  EXPECT_EQ(after.update_wire_bytes - before.update_wire_bytes,
            after.update_raw_bytes - before.update_raw_bytes + 1);
}

}  // namespace
}  // namespace iw
