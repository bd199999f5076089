// Tests for modification tracking: word diffing with run splicing, twins
// via real page faults, the software backend, and no-diff adaptation.
#include "client/tracking.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "client/client.hpp"
#include "net/inproc.hpp"
#include "server/server.hpp"
#include "util/rand.hpp"

namespace iw::client {
namespace {

std::vector<ByteRange> diff(const std::vector<uint32_t>& cur,
                            const std::vector<uint32_t>& twin,
                            uint32_t splice = 2) {
  std::vector<ByteRange> out;
  diff_words(reinterpret_cast<const uint8_t*>(cur.data()),
             reinterpret_cast<const uint8_t*>(twin.data()), cur.size() * 4,
             splice, out);
  return out;
}

TEST(DiffWords, IdenticalPagesProduceNothing) {
  std::vector<uint32_t> a(1024, 7);
  EXPECT_TRUE(diff(a, a).empty());
}

TEST(DiffWords, SingleWordChange) {
  std::vector<uint32_t> twin(1024, 0), cur(1024, 0);
  cur[100] = 1;
  auto runs = diff(cur, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].begin, 400u);
  EXPECT_EQ(runs[0].end, 404u);
}

TEST(DiffWords, WholePageChanged) {
  std::vector<uint32_t> twin(1024, 0), cur(1024, 1);
  auto runs = diff(cur, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].begin, 0u);
  EXPECT_EQ(runs[0].end, 4096u);
}

TEST(DiffWords, GapOfTwoIsSpliced) {
  std::vector<uint32_t> twin(64, 0), cur(64, 0);
  cur[10] = 1;
  cur[13] = 1;  // gap of 2 unmodified words (11, 12)
  auto runs = diff(cur, twin, 2);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].begin, 40u);
  EXPECT_EQ(runs[0].end, 56u);
}

TEST(DiffWords, GapOfThreeSplitsRuns) {
  std::vector<uint32_t> twin(64, 0), cur(64, 0);
  cur[10] = 1;
  cur[14] = 1;  // gap of 3 unmodified words
  auto runs = diff(cur, twin, 2);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].begin, 40u);
  EXPECT_EQ(runs[0].end, 44u);
  EXPECT_EQ(runs[1].begin, 56u);
  EXPECT_EQ(runs[1].end, 60u);
}

TEST(DiffWords, SplicingDisabledSplitsEverything) {
  std::vector<uint32_t> twin(64, 0), cur(64, 0);
  cur[10] = 1;
  cur[12] = 1;
  auto runs = diff(cur, twin, 0);
  EXPECT_EQ(runs.size(), 2u);
}

TEST(DiffWords, EveryOtherWordSplicesIntoOneRun) {
  // The paper's ratio-2 case: with splice=2, one long run.
  std::vector<uint32_t> twin(1024, 0), cur(1024, 0);
  for (size_t i = 0; i < 1024; i += 2) cur[i] = 1;
  auto runs = diff(cur, twin, 2);
  ASSERT_EQ(runs.size(), 1u);
}

TEST(DiffWords, EveryFourthWordStaysFragmented) {
  // The paper's ratio-4 case: splicing lost, many runs.
  std::vector<uint32_t> twin(1024, 0), cur(1024, 0);
  for (size_t i = 0; i < 1024; i += 4) cur[i] = 1;
  auto runs = diff(cur, twin, 2);
  EXPECT_EQ(runs.size(), 256u);
}

TEST(DiffWords, RandomizedRunsCoverExactlyChangedWords) {
  SplitMix64 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> twin(512), cur(512);
    for (auto& w : twin) w = static_cast<uint32_t>(rng());
    cur = twin;
    std::vector<bool> changed(512, false);
    int n_changes = 1 + static_cast<int>(rng.below(50));
    for (int c = 0; c < n_changes; ++c) {
      size_t i = rng.below(512);
      cur[i] ^= 0xFFFF;
      changed[i] = cur[i] != twin[i];
    }
    auto runs = diff(cur, twin, 2);
    // Every changed word must be inside some run.
    for (size_t i = 0; i < 512; ++i) {
      if (!changed[i]) continue;
      bool covered = false;
      for (const auto& r : runs) {
        if (i * 4 >= r.begin && i * 4 < r.end) covered = true;
      }
      EXPECT_TRUE(covered) << "word " << i << " missed in trial " << trial;
    }
    // Runs are sorted, non-overlapping, and never splice more than the
    // allowed gap of clean words between changed ones.
    for (size_t r = 1; r < runs.size(); ++r) {
      EXPECT_GT(runs[r].begin, runs[r - 1].end);
    }
  }
}

// --- End-to-end tracking-mode tests ---

class TrackingModes : public ::testing::Test {
 protected:
  std::unique_ptr<Client> make_client(TrackingMode mode) {
    Client::Options options;
    options.tracking = mode;
    return std::make_unique<Client>(
        [this](const std::string&) {
          return std::make_shared<InProcChannel>(server_);
        },
        options);
  }
  server::SegmentServer server_;
};

/// Every backend must produce identical shared state; this exercises twins
/// via real SIGSEGV faults (kVmDiff), eager snapshots (kSoftware), and
/// whole-block transmission (kNoDiff).
class TrackingModeParam
    : public TrackingModes,
      public ::testing::WithParamInterface<TrackingMode> {};

TEST_P(TrackingModeParam, ModificationsPropagate) {
  auto writer = make_client(GetParam());
  auto reader = make_client(TrackingMode::kAuto);
  std::string url =
      "host/track" + std::to_string(static_cast<int>(GetParam()));

  const TypeDescriptor* arr = writer->types().array_of(
      writer->types().primitive(PrimitiveKind::kInt32), 8192);
  ClientSegment* ws = writer->open_segment(url);
  writer->write_lock(ws);
  auto* data = static_cast<int32_t*>(writer->malloc_block(ws, arr, "a"));
  for (int i = 0; i < 8192; ++i) data[i] = i;
  writer->write_unlock(ws);

  writer->write_lock(ws);
  data[5000] = -5;
  data[1] = -1;
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment(url);
  reader->read_lock(rs);
  const auto* d =
      reinterpret_cast<const int32_t*>(rs->heap().find_by_name("a")->data());
  EXPECT_EQ(d[5000], -5);
  EXPECT_EQ(d[1], -1);
  EXPECT_EQ(d[5001], 5001);
  reader->read_unlock(rs);
}

INSTANTIATE_TEST_SUITE_P(AllModes, TrackingModeParam,
                         ::testing::Values(TrackingMode::kVmDiff,
                                           TrackingMode::kSoftware,
                                           TrackingMode::kNoDiff,
                                           TrackingMode::kAuto),
                         [](const auto& info) {
                           switch (info.param) {
                             case TrackingMode::kVmDiff: return "VmDiff";
                             case TrackingMode::kSoftware: return "Software";
                             case TrackingMode::kNoDiff: return "NoDiff";
                             default: return "Auto";
                           }
                         });

TEST_F(TrackingModes, VmDiffTakesFaultsOnlyForTouchedPages) {
  auto c = make_client(TrackingMode::kVmDiff);
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 65536);
  ClientSegment* seg = c->open_segment("host/faults");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr));
  c->write_unlock(seg);

  uint64_t before = fault_count();
  c->write_lock(seg);
  data[0] = 1;       // page A
  data[1] = 2;       // page A again: no second fault
  data[2048] = 3;    // page B (8 KiB in)
  c->write_unlock(seg);
  uint64_t faults = fault_count() - before;
  EXPECT_GE(faults, 2u);
  EXPECT_LE(faults, 4u);  // allow the header page
}

TEST_F(TrackingModes, VmDiffSendsOnlyTouchedSubblocks) {
  auto c = make_client(TrackingMode::kVmDiff);
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 262144);
  ClientSegment* seg = c->open_segment("host/sparse");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr));
  c->write_unlock(seg);

  uint64_t sent_before = c->bytes_sent();
  uint64_t units_before = c->stats().units_sent;
  c->write_lock(seg);
  data[100000] = 42;
  c->write_unlock(seg);
  uint64_t sent = c->bytes_sent() - sent_before;
  EXPECT_LT(sent, 600u) << "1 MiB segment, 1 word changed: tiny diff";
  EXPECT_EQ(c->stats().units_sent - units_before, 1u);
}

TEST_F(TrackingModes, AutoSwitchesToNoDiffWhenEverythingChanges) {
  auto c = make_client(TrackingMode::kAuto);
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 4096);
  ClientSegment* seg = c->open_segment("host/adapt");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr));
  c->write_unlock(seg);
  EXPECT_FALSE(seg->no_diff_active());

  // Two critical sections that rewrite everything.
  for (int round = 1; round <= 2; ++round) {
    c->write_lock(seg);
    for (int i = 0; i < 4096; ++i) data[i] = i + round;
    c->write_unlock(seg);
  }
  EXPECT_TRUE(seg->no_diff_active()) << "should have switched to no-diff";
  uint64_t no_diff_before = c->stats().no_diff_releases;

  c->write_lock(seg);
  data[0] = -1;
  c->write_unlock(seg);
  EXPECT_GT(c->stats().no_diff_releases, no_diff_before);
}

TEST_F(TrackingModes, AutoProbesDiffingAgain) {
  Client::Options options;
  options.tracking = TrackingMode::kAuto;
  options.no_diff_probe_period = 2;
  auto c = std::make_unique<Client>(
      [this](const std::string&) {
        return std::make_shared<InProcChannel>(server_);
      },
      options);
  const TypeDescriptor* arr =
      c->types().array_of(c->types().primitive(PrimitiveKind::kInt32), 1024);
  ClientSegment* seg = c->open_segment("host/probe");
  c->write_lock(seg);
  auto* data = static_cast<int32_t*>(c->malloc_block(seg, arr));
  c->write_unlock(seg);

  c->write_lock(seg);
  for (int i = 0; i < 1024; ++i) data[i] = i + 1;
  c->write_unlock(seg);
  ASSERT_TRUE(seg->no_diff_active());

  // Two no-diff sections burn the probe countdown...
  for (int round = 0; round < 2; ++round) {
    c->write_lock(seg);
    data[0] = round + 10;
    c->write_unlock(seg);
  }
  // ...after which diffing is probed again.
  EXPECT_FALSE(seg->no_diff_active());
}

// --- kAuto's per-subsegment choice between faults and eager twins ---

constexpr int kMiBInts = 262144;  // 1 MiB of int32: 256 data pages
constexpr int kIntsPerPage = static_cast<int>(kPageSize / 4);

/// Creates a 1 MiB int32 block "a" (its own subsegment) and returns it.
int32_t* make_mib_block(Client& c, ClientSegment* seg) {
  const TypeDescriptor* arr = c.types().array_of(
      c.types().primitive(PrimitiveKind::kInt32), kMiBInts);
  c.write_lock(seg);
  auto* data = static_cast<int32_t*>(c.malloc_block(seg, arr, "a"));
  c.write_unlock(seg);
  return data;
}

/// One critical section writing one word on every page of the block.
void write_every_page(Client& c, ClientSegment* seg, int32_t* data,
                      int32_t salt) {
  c.write_lock(seg);
  for (int i = 0; i < kMiBInts; i += kIntsPerPage) data[i] = i + salt;
  c.write_unlock(seg);
}

TEST_F(TrackingModes, AutoDenseSectionTakesNoFaults) {
  auto c = make_client(TrackingMode::kAuto);
  ClientSegment* seg = c->open_segment("host/dense");
  int32_t* data = make_mib_block(*c, seg);

  // The first dense section faults page by page; its release sees every
  // page dirty, so the second one is twinned at acquire.
  uint64_t faults_before = fault_count();
  write_every_page(*c, seg, data, 1);
  EXPECT_GE(fault_count() - faults_before, 256u);
  EXPECT_EQ(c->stats().eager_twin_pages, 0u);

  faults_before = fault_count();
  write_every_page(*c, seg, data, 2);
  EXPECT_EQ(fault_count() - faults_before, 0u);
  EXPECT_GE(c->stats().eager_twin_pages, 256u);
  EXPECT_FALSE(seg->no_diff_active()) << "256 of 262144 words is a diff";

  auto reader = make_client(TrackingMode::kAuto);
  ClientSegment* rs = reader->open_segment("host/dense");
  reader->read_lock(rs);
  const auto* d =
      reinterpret_cast<const int32_t*>(rs->heap().find_by_name("a")->data());
  for (int i = 0; i < kMiBInts; ++i) {
    ASSERT_EQ(d[i], i % kIntsPerPage == 0 ? i + 2 : 0) << i;
  }
  reader->read_unlock(rs);
}

TEST_F(TrackingModes, AutoReturnsToFaultsWhenWritesThinOut) {
  auto c = make_client(TrackingMode::kAuto);
  ClientSegment* seg = c->open_segment("host/thin");
  int32_t* data = make_mib_block(*c, seg);
  write_every_page(*c, seg, data, 1);

  // The first one-word section still pays one eager sweep...
  uint64_t faults_before = fault_count();
  uint64_t eager_before = c->stats().eager_twin_pages;
  c->write_lock(seg);
  data[100000] = 41;
  c->write_unlock(seg);
  EXPECT_EQ(fault_count() - faults_before, 0u);
  EXPECT_GE(c->stats().eager_twin_pages - eager_before, 256u);

  // ...whose release sees one dirty page, so the next one faults again
  // and, like VmDiffSendsOnlyTouchedSubblocks, sends a single unit.
  faults_before = fault_count();
  eager_before = c->stats().eager_twin_pages;
  uint64_t units_before = c->stats().units_sent;
  c->write_lock(seg);
  data[100000] = 42;
  c->write_unlock(seg);
  uint64_t faults = fault_count() - faults_before;
  EXPECT_GE(faults, 1u);
  EXPECT_LE(faults, 4u);
  EXPECT_EQ(c->stats().eager_twin_pages, eager_before);
  EXPECT_EQ(c->stats().units_sent - units_before, 1u);
}

// kAuto and kVmDiff writers apply the same seeded write sets, from one page
// in a thousand to every page, to two segments of identical shape. Eager
// twins are taken after the acquire's update, exactly what a fault would
// copy, so both must send the same units and the same bytes every round.
TEST_F(TrackingModes, AutoAndVmDiffSendIdenticalDiffs) {
  auto autow = make_client(TrackingMode::kAuto);
  auto vmw = make_client(TrackingMode::kVmDiff);
  // Equal-length URLs: the bytes on the wire must match exactly.
  ClientSegment* as = autow->open_segment("host/diff-a");
  ClientSegment* vs = vmw->open_segment("host/diff-v");
  int32_t* ad = make_mib_block(*autow, as);
  int32_t* vd = make_mib_block(*vmw, vs);
  auto reader = make_client(TrackingMode::kAuto);
  ClientSegment* ras = reader->open_segment("host/diff-a");
  ClientSegment* rvs = reader->open_segment("host/diff-v");

  constexpr int kPages = kMiBInts / kIntsPerPage;
  SplitMix64 rng(15);
  for (int round = 0; round < 20; ++round) {
    // Page density log-uniform in [0.1%, 100%]; 1..8 words per page keeps
    // the modified fraction far below the whole-segment no-diff switch.
    double density = std::pow(1000.0, rng.uniform() - 1.0);
    if (round % 5 == 4) density = 1.0;
    std::vector<std::pair<int, int32_t>> writes;
    for (int page = 0; page < kPages; ++page) {
      if (page > 0 && rng.uniform() >= density) continue;
      int words = 1 + static_cast<int>(rng.below(8));
      for (int w = 0; w < words; ++w) {
        writes.emplace_back(page * kIntsPerPage +
                                static_cast<int>(rng.below(kIntsPerPage)),
                            static_cast<int32_t>(rng()));
      }
    }
    uint64_t a_units = autow->stats().units_sent;
    uint64_t v_units = vmw->stats().units_sent;
    uint64_t a_bytes = autow->bytes_sent();
    uint64_t v_bytes = vmw->bytes_sent();
    autow->write_lock(as);
    vmw->write_lock(vs);
    for (auto [i, v] : writes) {
      ad[i] = v;
      vd[i] = v;
    }
    autow->write_unlock(as);
    vmw->write_unlock(vs);
    ASSERT_EQ(autow->stats().units_sent - a_units,
              vmw->stats().units_sent - v_units)
        << "round " << round << " density " << density;
    ASSERT_EQ(autow->bytes_sent() - a_bytes, vmw->bytes_sent() - v_bytes)
        << "round " << round << " density " << density;

    reader->read_lock(ras);
    reader->read_lock(rvs);
    ASSERT_EQ(std::memcmp(ras->heap().find_by_name("a")->data(),
                          rvs->heap().find_by_name("a")->data(),
                          kMiBInts * sizeof(int32_t)),
              0)
        << "round " << round;
    ASSERT_EQ(std::memcmp(ras->heap().find_by_name("a")->data(), ad,
                          kMiBInts * sizeof(int32_t)),
              0)
        << "round " << round;
    reader->read_unlock(rvs);
    reader->read_unlock(ras);
  }
  EXPECT_GT(autow->stats().eager_twin_pages, 0u) << "no round went eager";
  EXPECT_EQ(vmw->stats().eager_twin_pages, 0u);
}

}  // namespace
}  // namespace iw::client
