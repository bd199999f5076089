// Robustness fuzzing: random and truncated bytes fed to every decoder and
// to the server's protocol handler must produce clean errors, never crashes
// or hangs. Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "net/inproc.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "util/crc32c.hpp"
#include "util/endian.hpp"
#include "util/rand.hpp"
#include "wire/diff.hpp"
#include "wire/frame.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

std::vector<uint8_t> random_bytes(SplitMix64& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

TEST(FuzzDecode, TypeCodecNeverCrashes) {
  SplitMix64 rng(2026);
  TypeRegistry registry(Platform::native().rules);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = random_bytes(rng, 200);
    BufReader r(bytes.data(), bytes.size());
    try {
      TypeCodec::decode_graph(r, registry);
    } catch (const Error&) {
      // expected for garbage
    }
  }
}

TEST(FuzzDecode, MutatedValidTypeGraphs) {
  SplitMix64 rng(7);
  TypeRegistry source(Platform::native().rules);
  const TypeDescriptor* node = source.struct_builder("n")
      .field("k", source.primitive(PrimitiveKind::kInt32))
      .field("s", source.string_type(9))
      .self_pointer_field("next")
      .finish();
  Buffer valid;
  TypeCodec::encode_graph(node, valid);

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(valid.data(), valid.data() + valid.size());
    // Flip a few bytes / truncate.
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    TypeRegistry registry(Platform::native().rules);
    BufReader r(bytes.data(), bytes.size());
    try {
      const TypeDescriptor* t = TypeCodec::decode_graph(r, registry);
      // If it decoded, basic invariants must hold.
      ASSERT_NE(t, nullptr);
      (void)t->prim_units();
    } catch (const Error&) {
    }
  }
}

TEST(FuzzDecode, DiffReaderNeverCrashes) {
  SplitMix64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = random_bytes(rng, 300);
    BufReader in(bytes.data(), bytes.size());
    try {
      DiffReader reader(in);
      DiffEntry entry;
      int guard = 0;
      while (reader.next(&entry) && ++guard < 10000) {
        while (!entry.runs.at_end()) {
          DiffRun run = DiffReader::read_run(entry.runs);
          entry.runs.skip(std::min<size_t>(entry.runs.remaining(),
                                           run.unit_count));
        }
      }
    } catch (const Error&) {
    }
  }
}

TEST(FuzzServer, RandomFramesGetCleanResponses) {
  server::SegmentServer server;
  InProcChannel channel(server);
  SplitMix64 rng(4242);
  int errors = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    auto type = static_cast<MsgType>(rng.below(20));
    if (type == MsgType::kAcquireWrite) continue;  // may legitimately block
    auto payload_bytes = random_bytes(rng, 120);
    Buffer payload;
    payload.append(payload_bytes.data(), payload_bytes.size());
    try {
      channel.call(type, std::move(payload));
    } catch (const Error&) {
      ++errors;
    }
  }
  EXPECT_GT(errors, 0) << "garbage should mostly be rejected";
  // And the server must still work normally afterwards.
  Buffer open;
  open.append_lp_string("host/after-fuzz");
  open.append_u8(1);
  Frame resp = channel.call(MsgType::kOpenSegment, std::move(open));
  EXPECT_EQ(resp.type, MsgType::kOpenSegmentResp);
}

TEST(FuzzServer, MalformedReleaseDoesNotWedgeTheLock) {
  server::SegmentServer server;
  InProcChannel a(server);
  InProcChannel b(server);
  Buffer open;
  open.append_lp_string("host/wedge");
  open.append_u8(1);
  a.call(MsgType::kOpenSegment, std::move(open));

  // a acquires the write lock, then releases with garbage.
  Buffer acq;
  acq.append_lp_string("host/wedge");
  acq.append_u32(0);
  a.call(MsgType::kAcquireWrite, std::move(acq));
  Buffer bad;
  bad.append_lp_string("host/wedge");
  bad.append_u32(123);  // not a valid diff
  EXPECT_THROW(a.call(MsgType::kReleaseWrite, std::move(bad)), Error);

  // b must be able to take the lock now.
  Buffer acq2;
  acq2.append_lp_string("host/wedge");
  acq2.append_u32(0);
  Frame resp = b.call(MsgType::kAcquireWrite, std::move(acq2));
  EXPECT_EQ(resp.type, MsgType::kAcquireWriteResp);
  Buffer rel;
  rel.append_lp_string("host/wedge");
  DiffWriter(rel, 1, 1).finish();
  b.call(MsgType::kReleaseWrite, std::move(rel));
}

// ------------------------------------------------------- payload codec

std::vector<uint8_t> compressible_bytes(SplitMix64& rng, size_t len) {
  // Runs of repeated values with occasional noise: realistic diff shape,
  // reliably beats the raw form.
  std::vector<uint8_t> out(len);
  size_t i = 0;
  while (i < len) {
    uint8_t value = static_cast<uint8_t>(rng());
    size_t run = 8 + rng.below(64);
    for (size_t j = 0; j < run && i < len; ++j) out[i++] = value;
  }
  return out;
}

TEST(FuzzCodec, LzRoundTripsEveryInputShape) {
  SplitMix64 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> raw = (trial % 2 == 0)
        ? compressible_bytes(rng, 1 + rng.below(4096))
        : random_bytes(rng, 4096);
    Buffer comp;
    if (!lz_compress(raw, comp)) continue;  // incompressible: raw is kept
    ASSERT_LT(comp.size(), raw.size());
    std::vector<uint8_t> back = lz_decompress(comp.span(), raw.size());
    ASSERT_EQ(back, raw);
  }
}

TEST(FuzzCodec, MutatedCompressedStreamsAreTypedErrors) {
  SplitMix64 rng(67);
  std::vector<uint8_t> raw = compressible_bytes(rng, 2048);
  Buffer comp;
  ASSERT_TRUE(lz_compress(raw, comp));
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(comp.data(), comp.data() + comp.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    try {
      std::vector<uint8_t> back = lz_decompress(bytes, raw.size());
      // A mutation the checksum-free block codec cannot see must still
      // produce exactly raw_len bytes — never a crash or OOB access.
      ASSERT_EQ(back.size(), raw.size());
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
    }
  }
}

TEST(FuzzCodec, RecordPayloadEnvelopeRoundTripsAndRejectsGarbage) {
  SplitMix64 rng(101);
  std::vector<uint8_t> head(4, 0x7a);
  std::vector<uint8_t> body = compressible_bytes(rng, 1500);
  Buffer packed;
  ASSERT_TRUE(compress_record_payload(head, body, packed));
  std::vector<uint8_t> back = decompress_record_payload(packed.span());
  std::vector<uint8_t> want(head);
  want.insert(want.end(), body.begin(), body.end());
  EXPECT_EQ(back, want);

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(packed.data(), packed.data() + packed.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    try {
      (void)decompress_record_payload(bytes);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
    }
  }
  // Pure garbage never crashes either.
  for (int trial = 0; trial < 1000; ++trial) {
    auto bytes = random_bytes(rng, 256);
    try {
      (void)decompress_record_payload(bytes);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptPayload);
    }
  }
}

TEST(FuzzCodec, SectionEnvelopeRoundTripsWithTrailingBytes) {
  SplitMix64 rng(211);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> section = compressible_bytes(rng, 64 + rng.below(2048));
    Buffer payload;
    payload.append_u32(0xfeedface);  // leading frame field
    const size_t method_offset = payload.size();
    payload.append_u8(payload_method::kRaw);
    payload.append(section.data(), section.size());
    const bool compressed = compress_section_in_place(payload, method_offset);
    payload.append_u8(0x5c);  // trailing frame field (the grant byte shape)

    BufReader in(payload.data(), payload.size());
    ASSERT_EQ(in.read_u32(), 0xfeedface);
    std::vector<uint8_t> scratch;
    if (read_compressed_section(in, scratch)) {
      ASSERT_TRUE(compressed);
      ASSERT_EQ(scratch, section);
    } else {
      ASSERT_FALSE(compressed);
      auto raw = in.read_bytes(section.size());
      ASSERT_TRUE(std::equal(raw.begin(), raw.end(), section.begin()));
    }
    // The kLz envelope is explicitly sized: trailing bytes still line up.
    ASSERT_EQ(in.read_u8(), 0x5c);
    ASSERT_EQ(in.remaining(), 0u);
  }
}

TEST(FuzzCodec, MutatedSectionEnvelopesAreTypedErrors) {
  SplitMix64 rng(307);
  std::vector<uint8_t> section = compressible_bytes(rng, 2048);
  Buffer payload;
  const size_t method_offset = payload.size();
  payload.append_u8(payload_method::kRaw);
  payload.append(section.data(), section.size());
  ASSERT_TRUE(compress_section_in_place(payload, method_offset));
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(payload.data(), payload.data() + payload.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    BufReader in(bytes.data(), bytes.size());
    std::vector<uint8_t> scratch;
    try {
      if (read_compressed_section(in, scratch)) {
        ASSERT_EQ(scratch.size(), section.size());
      }
    } catch (const Error& e) {
      // Method-byte mutations surface as protocol-shaped errors; stream
      // mutations as kCorruptPayload. Either way: typed, never a crash.
      EXPECT_TRUE(e.code() == ErrorCode::kCorruptPayload ||
                  e.code() == ErrorCode::kProtocol)
          << static_cast<int>(e.code());
    }
  }
}

// ------------------------------------------------ pinned encoder output

// An array of 48-byte records: a counting id, a slowly drifting double, a
// short name padded with zeros and a pointer-like word. The shape of a
// packed-canonical block diff.
std::vector<uint8_t> struct_like_bytes(SplitMix64& rng, size_t len) {
  static constexpr const char* kNames[] = {"alpha", "beta", "gamma",
                                           "delta", "epsilon"};
  std::vector<uint8_t> out;
  out.reserve(len + 48);
  double value = 1.0;
  for (uint32_t id = 0; out.size() < len; ++id) {
    uint8_t rec[48] = {};
    store_be32(rec, id);
    value += static_cast<double>(rng.below(1000)) / 64.0;
    store_be_double(rec + 4, value);
    const char* name = kNames[rng.below(5)];
    std::memcpy(rec + 12, name, std::strlen(name));
    store_be64(rec + 40, 0x10000 + 48 * static_cast<uint64_t>(rng.below(512)));
    out.insert(out.end(), rec, rec + sizeof rec);
  }
  out.resize(len);
  return out;
}

// Words from a small vocabulary, separated by spaces and newlines.
std::vector<uint8_t> text_like_bytes(SplitMix64& rng, size_t len) {
  static constexpr const char* kWords[] = {
      "segment", "version", "diff",   "block", "server", "client",
      "the",     "of",      "a",      "lock",  "marker", "heterogeneous",
      "wire",    "format",  "pointer"};
  std::vector<uint8_t> out;
  out.reserve(len + 16);
  while (out.size() < len) {
    const char* w = kWords[rng.below(15)];
    out.insert(out.end(), w, w + std::strlen(w));
    out.push_back(rng.below(12) == 0 ? '\n' : ' ');
  }
  out.resize(len);
  return out;
}

struct PinnedInput {
  std::string name;
  std::vector<uint8_t> bytes;
};

// One input per shape the codec meets, at sizes that cross the minimum
// input, the 15- and 255-byte length extensions and the 64 KiB match
// window.
std::vector<PinnedInput> pinned_inputs() {
  SplitMix64 rng(0x5eed);
  std::vector<PinnedInput> in;
  for (size_t len : {64u, 1000u, 51200u, 200000u}) {
    in.push_back({"struct/" + std::to_string(len), struct_like_bytes(rng, len)});
  }
  for (size_t len : {65u, 4096u, 70000u}) {
    in.push_back({"text/" + std::to_string(len), text_like_bytes(rng, len)});
  }
  for (size_t len : {300u, 20000u}) {
    in.push_back({"rle/" + std::to_string(len), compressible_bytes(rng, len)});
  }
  in.push_back({"rle/one-run", std::vector<uint8_t>(5000, 0xab)});
  for (size_t len : {64u, 8192u}) {
    std::vector<uint8_t> noise(len);
    for (auto& b : noise) b = static_cast<uint8_t>(rng());
    in.push_back({"random/" + std::to_string(len), std::move(noise)});
  }
  // A long literal run followed by a repeat of itself.
  std::vector<uint8_t> echo(3000);
  for (auto& b : echo) b = static_cast<uint8_t>(rng());
  echo.insert(echo.end(), echo.begin(), echo.end());
  in.push_back({"random/echo", std::move(echo)});
  return in;
}

// {bytes, CRC32C} of each input's lz_compress output, {0, 0} where the
// encoder declines. Journals, replicas and peers hold these exact bytes,
// and a reader reuses a committer's envelope verbatim, so a speed-up of
// the encoder must leave every value here unchanged.
constexpr std::pair<size_t, uint32_t> kPinnedEncodings[] = {
    {42, 0x0651a659},    {342, 0x38bc2f98},   {15423, 0x7bd2f106},
    {60136, 0xaafae588}, {59, 0x65c7cc09},    {1728, 0x9bdf2489},
    {28239, 0xc3d57205}, {47, 0x9c72a15a},    {2747, 0x5ab0ee7e},
    {25, 0xa371c33b},    {0, 0},              {0, 0},
    {3028, 0x432690c3},
};

std::vector<std::vector<uint8_t>> encode_all(
    const std::vector<PinnedInput>& inputs) {
  std::vector<std::vector<uint8_t>> out;
  for (const PinnedInput& in : inputs) {
    Buffer comp;
    comp.append_u8(0x42);  // lz_compress appends: a prefix must survive
    if (lz_compress(in.bytes, comp)) {
      out.emplace_back(comp.data() + 1, comp.data() + comp.size());
    } else {
      EXPECT_EQ(comp.size(), 1u) << in.name;
      out.emplace_back();
    }
    EXPECT_EQ(comp.data()[0], 0x42) << in.name;
  }
  return out;
}

TEST(FuzzCodec, EncoderOutputIsPinned) {
  const std::vector<PinnedInput> inputs = pinned_inputs();
  ASSERT_EQ(inputs.size(), std::size(kPinnedEncodings));

  // This thread has compressed other inputs in earlier tests; encode
  // forwards, then backwards, so each input also follows a different one.
  const std::vector<std::vector<uint8_t>> warm = encode_all(inputs);
  std::vector<PinnedInput> reversed(inputs.rbegin(), inputs.rend());
  std::vector<std::vector<uint8_t>> rewarm = encode_all(reversed);
  std::reverse(rewarm.begin(), rewarm.end());
  std::vector<std::vector<uint8_t>> fresh;
  std::thread([&] { fresh = encode_all(inputs); }).join();

  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<uint8_t>& enc = warm[i];
    const uint32_t crc = enc.empty() ? 0 : crc32c(enc.data(), enc.size());
    EXPECT_EQ(enc.size(), kPinnedEncodings[i].first) << inputs[i].name;
    EXPECT_EQ(crc, kPinnedEncodings[i].second)
        << inputs[i].name << " crc 0x" << std::hex << crc;
    EXPECT_EQ(rewarm[i], enc) << inputs[i].name;
    EXPECT_EQ(fresh[i], enc) << inputs[i].name;
    if (!enc.empty()) {
      EXPECT_EQ(lz_decompress(enc, inputs[i].bytes.size()), inputs[i].bytes)
          << inputs[i].name;
    }
  }
}

TEST(FuzzCodec, RecordScannerStopsCleanlyOnMutatedFrames) {
  SplitMix64 rng(401);
  Buffer valid;
  for (uint8_t tag = 1; tag <= 4; ++tag) {
    auto body = compressible_bytes(rng, 200 + rng.below(800));
    append_framed_record(valid, tag, body);
  }
  // The pristine run scans end to end.
  {
    RecordScanner scanner(valid.span());
    ScannedRecord rec;
    int n = 0;
    while (scanner.next(&rec) == RecordScanner::Status::kRecord) ++n;
    EXPECT_EQ(n, 4);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(valid.data(), valid.data() + valid.size());
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));
    RecordScanner scanner(bytes);
    ScannedRecord rec;
    int guard = 0;
    RecordScanner::Status status;
    while ((status = scanner.next(&rec)) == RecordScanner::Status::kRecord) {
      ASSERT_LT(++guard, 64);
      // Every surfaced record passed its CRC; the flip either hit a body
      // (caught) or a record it left intact.
      ASSERT_LE(rec.end_offset, bytes.size());
    }
    // Never hangs, never reads past the buffer; any damage is kTorn.
    ASSERT_TRUE(status == RecordScanner::Status::kEnd ||
                status == RecordScanner::Status::kTorn);
  }
}

TEST(FuzzFrame, HeaderDecoding) {
  SplitMix64 rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    uint8_t header[kFrameHeaderSize];
    for (auto& b : header) b = static_cast<uint8_t>(rng());
    try {
      FrameHeader h = decode_frame_header(header);
      EXPECT_LE(h.payload_size, kMaxFramePayload);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace iw
