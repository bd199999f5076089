// Transaction tests: commit behaves like a write critical section; abort
// rolls back data modifications, discards allocations, resurrects frees,
// and releases the server lock without publishing anything.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "interweave/interweave.hpp"

namespace iw {
namespace {

using client::TrackingMode;

class Txn : public ::testing::TestWithParam<TrackingMode> {
 protected:
  Txn() {
    factory_ = [this](const std::string&) {
      return std::make_shared<InProcChannel>(server_);
    };
  }
  std::unique_ptr<Client> make_client() {
    Client::Options options;
    options.tracking = GetParam();
    return std::make_unique<Client>(factory_, options);
  }
  server::SegmentServer server_;
  Client::ChannelFactory factory_;
};

TEST_P(Txn, CommitPublishesChanges) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 256);
  ClientSegment* seg = c->open_segment("host/txn-commit");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr, "a"));
  c->write_unlock(seg);

  c->begin_transaction(seg);
  data[10] = 42;
  c->commit_transaction(seg);
  EXPECT_EQ(seg->version(), 3u);

  auto other = make_client();
  ClientSegment* os = other->open_segment("host/txn-commit");
  other->read_lock(os);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(
                os->heap().find_by_name("a")->data())[10],
            42);
  other->read_unlock(os);
}

TEST_P(Txn, AbortRestoresData) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 4096);
  ClientSegment* seg = c->open_segment("host/txn-abort");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr, "a"));
  for (int i = 0; i < 4096; ++i) data[i] = i;
  c->write_unlock(seg);
  uint32_t version_before = seg->version();

  c->begin_transaction(seg);
  for (int i = 0; i < 4096; i += 7) data[i] = -1;
  c->abort_transaction(seg);

  // Local copy fully restored; no version advanced anywhere.
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(data[i], i) << i;
  EXPECT_EQ(seg->version(), version_before);
  EXPECT_EQ(server_.segment_version("host/txn-abort"), version_before);
}

TEST_P(Txn, AbortDiscardsAllocations) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 16);
  ClientSegment* seg = c->open_segment("host/txn-alloc");
  c->write_lock(seg);
  c->malloc_block(seg, arr, "keep");
  c->write_unlock(seg);

  c->begin_transaction(seg);
  c->malloc_block(seg, arr, "ghost");
  EXPECT_NE(seg->heap().find_by_name("ghost"), nullptr);
  c->abort_transaction(seg);
  EXPECT_EQ(seg->heap().find_by_name("ghost"), nullptr);
  EXPECT_NE(seg->heap().find_by_name("keep"), nullptr);
  EXPECT_EQ(seg->heap().block_count(), 1u);
}

TEST_P(Txn, AbortResurrectsFrees) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 64);
  ClientSegment* seg = c->open_segment("host/txn-free");
  c->write_lock(seg);
  auto* victim = static_cast<int32_t*>(c->malloc_block(seg, arr, "victim"));
  for (int i = 0; i < 64; ++i) victim[i] = i * 2;
  c->write_unlock(seg);

  c->begin_transaction(seg);
  victim[0] = 999;  // modify, then free
  c->free_block(seg, victim);
  EXPECT_EQ(seg->heap().find_by_name("victim"), nullptr);
  c->abort_transaction(seg);

  auto* blk = seg->heap().find_by_name("victim");
  ASSERT_NE(blk, nullptr);
  const auto* d = reinterpret_cast<const int32_t*>(blk->data());
  EXPECT_EQ(d[0], 0);  // pre-transaction value restored
  EXPECT_EQ(d[63], 126);
}

TEST_P(Txn, CommitAppliesDeferredFrees) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 16);
  ClientSegment* seg = c->open_segment("host/txn-dfree");
  c->write_lock(seg);
  void* victim = c->malloc_block(seg, arr, "victim");
  c->malloc_block(seg, arr, "keep");
  c->write_unlock(seg);

  c->begin_transaction(seg);
  c->free_block(seg, victim);
  c->commit_transaction(seg);

  auto other = make_client();
  ClientSegment* os = other->open_segment("host/txn-dfree");
  other->read_lock(os);
  EXPECT_EQ(os->heap().find_by_name("victim"), nullptr);
  EXPECT_NE(os->heap().find_by_name("keep"), nullptr);
  other->read_unlock(os);
}

TEST_P(Txn, AbortReleasesServerLock) {
  auto a = make_client();
  auto b = make_client();
  ClientSegment* sa = a->open_segment("host/txn-lock");
  ClientSegment* sb = b->open_segment("host/txn-lock");
  a->begin_transaction(sa);
  a->abort_transaction(sa);
  // b can immediately take the write lock.
  b->write_lock(sb);
  b->write_unlock(sb);
  SUCCEED();
}

TEST_P(Txn, AbortedWorkInvisibleToOthers) {
  auto a = make_client();
  auto b = make_client();
  const TypeDescriptor* arr =
      a->types().array_of(a->types().primitive(PrimitiveKind::kInt32), 128);
  ClientSegment* sa = a->open_segment("host/txn-invis");
  a->write_lock(sa);
  auto* data = static_cast<int32_t*>(a->malloc_block(sa, arr, "a"));
  data[0] = 1;
  a->write_unlock(sa);

  a->begin_transaction(sa);
  data[0] = 2;
  a->abort_transaction(sa);

  ClientSegment* sb = b->open_segment("host/txn-invis");
  b->read_lock(sb);
  EXPECT_EQ(reinterpret_cast<const int32_t*>(
                sb->heap().find_by_name("a")->data())[0],
            1);
  b->read_unlock(sb);
}

TEST_P(Txn, SequentialTransactionsAndLocksInterleave) {
  auto c = make_client();
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 32);
  ClientSegment* seg = c->open_segment("host/txn-seq");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr, "a"));
  c->write_unlock(seg);

  for (int round = 0; round < 5; ++round) {
    c->begin_transaction(seg);
    data[round] = round + 100;
    if (round % 2 == 0) {
      c->commit_transaction(seg);
    } else {
      c->abort_transaction(seg);
    }
    c->write_lock(seg);
    data[10 + round] = round;
    c->write_unlock(seg);
  }
  EXPECT_EQ(data[0], 100);
  EXPECT_EQ(data[1], 0);  // aborted
  EXPECT_EQ(data[2], 102);
  EXPECT_EQ(data[3], 0);  // aborted
  for (int round = 0; round < 5; ++round) EXPECT_EQ(data[10 + round], round);
}

TEST_P(Txn, MisuseThrows) {
  auto c = make_client();
  ClientSegment* seg = c->open_segment("host/txn-misuse");
  EXPECT_THROW(c->commit_transaction(seg), Error);
  EXPECT_THROW(c->abort_transaction(seg), Error);
  c->write_lock(seg);
  // A plain write lock is not a transaction.
  EXPECT_THROW(c->abort_transaction(seg), Error);
  c->write_unlock(seg);
}

// Under kAuto a subsegment whose last release dirtied most of its pages is
// twinned at acquire instead of write-protected; those eager twins are the
// pre-images abort restores from.
TEST(TxnEagerTwins, AbortAfterDenseSectionRestoresEveryByte) {
  server::SegmentServer server;
  Client c([&](const std::string&) {
    return std::make_shared<InProcChannel>(server);
  });
  ASSERT_EQ(c.options().tracking, TrackingMode::kAuto);
  constexpr int kInts = 262144;  // 1 MiB, its own subsegment
  const TypeDescriptor* arr =
      c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), kInts);
  ClientSegment* seg = c.open_segment("host/txn-eager");
  c.write_lock(seg);
  auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "a"));
  for (int i = 0; i < kInts; ++i) data[i] = i;
  c.write_unlock(seg);
  // A dense section: one word on every page.
  c.write_lock(seg);
  for (int i = 0; i < kInts; i += 1024) data[i] = -i;
  c.write_unlock(seg);
  std::vector<int32_t> committed(data, data + kInts);
  uint32_t version_before = seg->version();

  uint64_t eager_before = c.stats().eager_twin_pages;
  c.begin_transaction(seg);
  EXPECT_GE(c.stats().eager_twin_pages - eager_before, 256u);
  for (int i = 0; i < kInts; i += 97) data[i] = 7;
  c.abort_transaction(seg);

  for (int i = 0; i < kInts; ++i) ASSERT_EQ(data[i], committed[i]) << i;
  EXPECT_EQ(seg->version(), version_before);
  EXPECT_EQ(server.segment_version("host/txn-eager"), version_before);
}

INSTANTIATE_TEST_SUITE_P(Modes, Txn,
                         ::testing::Values(TrackingMode::kAuto,
                                           TrackingMode::kVmDiff,
                                           TrackingMode::kSoftware,
                                           TrackingMode::kNoDiff),
                         [](const auto& info) {
                           switch (info.param) {
                             case TrackingMode::kVmDiff: return "VmDiff";
                             case TrackingMode::kSoftware: return "Software";
                             case TrackingMode::kNoDiff: return "NoDiff";
                             default: return "Auto";
                           }
                         });

}  // namespace
}  // namespace iw
