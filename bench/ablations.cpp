// Ablation benchmarks for the optimizations of paper §3.3. Each group
// measures the same operation with one design choice toggled:
//
//   nodiff      whole-segment transmission vs twins+diffing when all (or
//               one tenth of) the data changes
//   splicing    diff-run splicing on/off at the paper's worst case
//               (every other word modified)
//   isomorphic  isomorphic type descriptors on/off for a 32-int struct
//   lastblock   last-block prediction on/off when applying a diff that
//               touches 1000 blocks in order
//   diffcache   server diff cache on/off for repeated identical requests
//   eager_twins whole write critical section (acquire, writes, release) of
//               kVmDiff (a fault per touched page) vs kAuto (twins every
//               page at acquire once a release saw >= 1/8 of them dirty)
//               at 100%, 12.5% and 1% page density
#include <benchmark/benchmark.h>

#include <algorithm>

#include "interweave/interweave.hpp"
#include "util/stopwatch.hpp"

namespace iw::bench {
namespace {

using client::TrackingMode;

client::Client::Options tracking_options(TrackingMode mode) {
  client::Client::Options options;
  options.tracking = mode;
  return options;
}

// ------------------------------------------------------------- no-diff

void bm_nodiff(benchmark::State& state, TrackingMode mode,
               uint64_t touch_stride) {
  server::SegmentServer server;
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      tracking_options(mode));
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), 262144);
  ClientSegment* seg = writer.open_segment("bench/nodiff");
  writer.write_lock(seg);
  auto* data = static_cast<int32_t*>(writer.malloc_block(seg, arr));
  writer.write_unlock(seg);

  uint64_t salt = 1;
  for (auto _ : state) {
    writer.write_lock(seg);
    for (uint64_t i = 0; i < 262144; i += touch_stride) {
      data[i] = static_cast<int32_t>(i + salt);
    }
    ++salt;
    uint64_t before = writer.stats().collect_ns;
    writer.write_unlock(seg);
    state.SetIterationTime(
        static_cast<double>(writer.stats().collect_ns - before) * 1e-9);
  }
  state.counters["bytes_sent"] = static_cast<double>(writer.bytes_sent()) /
                                 static_cast<double>(state.iterations());
}

// ------------------------------------------------------------ splicing

void bm_splicing(benchmark::State& state, uint32_t splice_gap) {
  server::SegmentServer server;
  client::Client::Options options = tracking_options(TrackingMode::kVmDiff);
  options.splice_gap_words = splice_gap;
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      options);
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), 262144);
  ClientSegment* seg = writer.open_segment("bench/splice");
  writer.write_lock(seg);
  auto* data = static_cast<int32_t*>(writer.malloc_block(seg, arr));
  writer.write_unlock(seg);

  uint64_t salt = 1;
  for (auto _ : state) {
    writer.write_lock(seg);
    for (uint64_t i = 0; i < 262144; i += 2) {  // the paper's ratio-2 case
      data[i] = static_cast<int32_t>(i + salt);
    }
    ++salt;
    uint64_t before = writer.stats().collect_ns;
    writer.write_unlock(seg);
    state.SetIterationTime(
        static_cast<double>(writer.stats().collect_ns - before) * 1e-9);
  }
  state.counters["bytes_sent"] = static_cast<double>(writer.bytes_sent()) /
                                 static_cast<double>(state.iterations());
}

// ---------------------------------------------------------- isomorphic

void bm_isomorphic(benchmark::State& state, bool enabled) {
  server::SegmentServer server;
  client::Client::Options options = tracking_options(TrackingMode::kNoDiff);
  options.type_options.isomorphic_descriptors = enabled;
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      options);
  StructBuilder b = writer.types().struct_builder("int32s");
  for (int i = 0; i < 32; ++i) {
    b.field("f" + std::to_string(i),
            writer.types().primitive(PrimitiveKind::kInt32));
  }
  const TypeDescriptor* arr = writer.types().array_of(b.finish(), 8192);
  ClientSegment* seg = writer.open_segment("bench/iso");
  writer.write_lock(seg);
  auto* data = static_cast<int32_t*>(writer.malloc_block(seg, arr));
  writer.write_unlock(seg);

  uint64_t salt = 1;
  for (auto _ : state) {
    writer.write_lock(seg);
    for (uint64_t i = 0; i < 262144; ++i) {
      data[i] = static_cast<int32_t>(i + salt);
    }
    ++salt;
    uint64_t before = writer.stats().collect_ns;
    writer.write_unlock(seg);
    state.SetIterationTime(
        static_cast<double>(writer.stats().collect_ns - before) * 1e-9);
  }
}

// ----------------------------------------------------------- lastblock

void bm_lastblock(benchmark::State& state, bool enabled) {
  server::SegmentServer server;
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      tracking_options(TrackingMode::kVmDiff));
  client::Client::Options reader_options;
  reader_options.last_block_prediction = enabled;
  Client reader(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      reader_options);

  const TypeDescriptor* blk = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), 64);
  ClientSegment* seg_w = writer.open_segment("bench/lastblk");
  writer.write_lock(seg_w);
  std::vector<int32_t*> blocks;
  for (int i = 0; i < 1000; ++i) {
    blocks.push_back(static_cast<int32_t*>(writer.malloc_block(seg_w, blk)));
  }
  writer.write_unlock(seg_w);
  ClientSegment* seg_r = reader.open_segment("bench/lastblk");
  reader.read_lock(seg_r);
  reader.read_unlock(seg_r);

  uint64_t salt = 1;
  for (auto _ : state) {
    writer.write_lock(seg_w);
    for (auto* b : blocks) b[0] = static_cast<int32_t>(salt);
    ++salt;
    writer.write_unlock(seg_w);
    uint64_t before = reader.stats().apply_ns;
    reader.read_lock(seg_r);
    reader.read_unlock(seg_r);
    state.SetIterationTime(
        static_cast<double>(reader.stats().apply_ns - before) * 1e-9);
  }
  uint64_t hits = reader.stats().prediction_hits;
  uint64_t misses = reader.stats().prediction_misses;
  state.counters["hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

// ----------------------------------------------------------- diffcache

void bm_diffcache(benchmark::State& state, bool enabled) {
  server::SegmentServer::Options so;
  so.store.enable_diff_cache = enabled;
  server::SegmentServer server(so);
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      tracking_options(TrackingMode::kVmDiff));
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), 262144);
  ClientSegment* seg_w = writer.open_segment("bench/dcache");
  writer.write_lock(seg_w);
  auto* data = static_cast<int32_t*>(writer.malloc_block(seg_w, arr));
  writer.write_unlock(seg_w);

  // A pool of stale readers all one version behind; each iteration bumps
  // the version once and lets every reader fetch the same diff.
  constexpr int kReaders = 8;
  std::vector<std::unique_ptr<Client>> readers;
  std::vector<ClientSegment*> segs;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(std::make_unique<Client>([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    }));
    segs.push_back(readers.back()->open_segment("bench/dcache"));
    readers.back()->read_lock(segs.back());
    readers.back()->read_unlock(segs.back());
  }

  uint64_t salt = 1;
  for (auto _ : state) {
    writer.write_lock(seg_w);
    for (uint64_t i = 0; i < 262144; i += 64) {
      data[i] = static_cast<int32_t>(i + salt);
    }
    ++salt;
    writer.write_unlock(seg_w);
    uint64_t before = server.segment_stats("bench/dcache").collect_ns;
    for (int i = 0; i < kReaders; ++i) {
      readers[i]->read_lock(segs[i]);
      readers[i]->read_unlock(segs[i]);
    }
    // A cache hit makes the collection effectively free; floor the manual
    // time (and run a fixed iteration count, see register_all) so the
    // min-time loop terminates either way.
    double elapsed =
        static_cast<double>(
            server.segment_stats("bench/dcache").collect_ns - before) *
        1e-9;
    state.SetIterationTime(std::max(elapsed, 1e-6));
  }
  auto stats = server.segment_stats("bench/dcache");
  state.counters["cache_hits"] = static_cast<double>(stats.diff_cache_hits);
}

// --------------------------------------------------------- eager_twins

void bm_eager_twins(benchmark::State& state, TrackingMode mode,
                    uint64_t page_stride) {
  server::SegmentServer server;
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      tracking_options(mode));
  constexpr uint64_t kInts = 262144;  // 1 MiB: 256 data pages
  constexpr uint64_t kIntsPerPage = 1024;
  const TypeDescriptor* arr = writer.types().array_of(
      writer.types().primitive(PrimitiveKind::kInt32), kInts);
  ClientSegment* seg = writer.open_segment("bench/eager");
  writer.write_lock(seg);
  auto* data = static_cast<int32_t*>(writer.malloc_block(seg, arr));
  writer.write_unlock(seg);

  // One word on every page_stride-th of the block's 257 pages (the block
  // header shifts the data, so the last word is on the 257th).
  uint64_t salt = 1;
  auto section = [&] {
    writer.write_lock(seg);
    for (uint64_t page = 0; page <= kInts / kIntsPerPage;
         page += page_stride) {
      uint64_t i = std::min(page * kIntsPerPage, kInts - 1);
      data[i] = static_cast<int32_t>(i + salt);
    }
    ++salt;
    writer.write_unlock(seg);
  };
  section();  // steady state: kAuto has seen one release of this density
  for (auto _ : state) {
    Stopwatch timer;
    section();
    state.SetIterationTime(timer.elapsed_seconds());
  }
  state.counters["eager_twin_pages"] =
      static_cast<double>(writer.stats().eager_twin_pages) /
      static_cast<double>(state.iterations());
}

void register_all() {
  auto reg = [](const std::string& name, auto fn, auto... args) {
    return benchmark::RegisterBenchmark(name.c_str(), fn, args...)
        ->UseManualTime()
        ->MinTime(0.05);
  };
  reg("ablation/nodiff/whole_block_mode_full_change", bm_nodiff,
      TrackingMode::kNoDiff, uint64_t{1});
  reg("ablation/nodiff/diff_mode_full_change", bm_nodiff,
      TrackingMode::kVmDiff, uint64_t{1});
  reg("ablation/nodiff/whole_block_mode_sparse_change", bm_nodiff,
      TrackingMode::kNoDiff, uint64_t{64});
  reg("ablation/nodiff/diff_mode_sparse_change", bm_nodiff,
      TrackingMode::kVmDiff, uint64_t{64});
  reg("ablation/splicing/on_gap2", bm_splicing, uint32_t{2});
  reg("ablation/splicing/off", bm_splicing, uint32_t{0});
  reg("ablation/isomorphic/on", bm_isomorphic, true);
  reg("ablation/isomorphic/off", bm_isomorphic, false);
  reg("ablation/lastblock/prediction_on", bm_lastblock, true);
  reg("ablation/lastblock/prediction_off", bm_lastblock, false);
  const std::pair<const char*, uint64_t> densities[] = {
      {"pages_100pct", 1}, {"pages_12.5pct", 8}, {"pages_1pct", 100}};
  for (const auto& [label, stride] : densities) {
    reg(std::string("ablation/eager_twins/vmdiff_") + label, bm_eager_twins,
        TrackingMode::kVmDiff, stride);
    reg(std::string("ablation/eager_twins/auto_") + label, bm_eager_twins,
        TrackingMode::kAuto, stride);
  }
  benchmark::RegisterBenchmark("ablation/diffcache/on", bm_diffcache, true)->UseManualTime()->Iterations(64);
  benchmark::RegisterBenchmark("ablation/diffcache/off", bm_diffcache, false)->UseManualTime()->Iterations(64);
}

}  // namespace
}  // namespace iw::bench

int main(int argc, char** argv) {
  iw::bench::register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
