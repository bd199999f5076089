#include "wire/payload.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/crc32c.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"

namespace iw {

namespace {

// --- LZ codec internals -----------------------------------------------------

constexpr size_t kMinMatch = 4;
constexpr int kHashBits = 13;
constexpr size_t kMaxOffset = 0xFFFF;

inline uint32_t load_raw32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline uint64_t load_raw64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Fibonacci-hash the 4-byte sequence at a position into the match table.
inline uint32_t sequence_slot(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common run of `a` and `b` (a < b), at most `limit` bytes:
// eight bytes per step, the first differing byte found from the XOR.
inline size_t common_length(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t diff = load_raw64(a + len) ^ load_raw64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
      } else {
        return len + static_cast<size_t>(std::countl_zero(diff)) / 8;
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// One match table per thread. Positions are stored offset by `base`, which
// moves past every position of a call when the call ends, so entries left
// by earlier inputs read as empty without clearing the table.
struct MatchTable {
  std::vector<uint32_t> slots = std::vector<uint32_t>(size_t{1} << kHashBits);
  uint32_t base = 1;  // zero-filled slots sit below it: empty
};

// Bytes of the 255-run extension a length of `len` needs beyond its
// 4-bit token nibble (see emit_length).
inline size_t extension_bytes(size_t len) {
  return len < 15 ? 0 : (len - 15) / 255 + 1;
}

// Writes a 255-run length extension (the amount beyond the token nibble).
inline uint8_t* emit_length(uint8_t* op, size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<uint8_t>(len);
  return op;
}

// Writes the token and literals of one sequence.
inline uint8_t* emit_literals(uint8_t* op, const uint8_t* lit_src, size_t lit,
                              size_t match_nib) {
  const size_t lit_nib = lit < 15 ? lit : 15;
  *op++ = static_cast<uint8_t>((lit_nib << 4) | match_nib);
  if (lit >= 15) op = emit_length(op, lit - 15);
  std::memcpy(op, lit_src, lit);
  return op + lit;
}

[[noreturn]] void corrupt(const char* what) {
  throw Error(ErrorCode::kCorruptPayload, what);
}

}  // namespace

bool lz_compress(std::span<const uint8_t> raw, Buffer& out) {
  const size_t n = raw.size();
  if (n < kMinCompressInput || n > kMaxFramedBody) return false;
  const uint8_t* src = raw.data();

  static thread_local MatchTable table;
  if (table.base > UINT32_MAX - n) {
    std::fill(table.slots.begin(), table.slots.end(), 0);
    table.base = 1;
  }
  const uint32_t base = table.base;
  table.base += static_cast<uint32_t>(n);
  uint32_t* const slots = table.slots.data();

  // An encoding of n bytes or more is refused, so n bytes of room suffice:
  // each sequence is sized before it is written, and one that would reach
  // n ends the attempt (the encoding only grows from there).
  const size_t start = out.size();
  uint8_t* const op_begin = out.extend(n);
  uint8_t* const op_end = op_begin + n;
  uint8_t* op = op_begin;

  size_t ip = 0, anchor = 0;
  while (ip + kMinMatch <= n) {
    const uint32_t seq = load_raw32(src + ip);
    uint32_t& slot = slots[sequence_slot(seq)];
    const uint32_t cand = slot;
    slot = base + static_cast<uint32_t>(ip);
    if (cand >= base) {
      const size_t cpos = cand - base;
      if (ip - cpos <= kMaxOffset && load_raw32(src + cpos) == seq) {
        const size_t len =
            kMinMatch + common_length(src + cpos + kMinMatch,
                                      src + ip + kMinMatch,
                                      n - ip - kMinMatch);
        const size_t lit = ip - anchor;
        const size_t extra = len - kMinMatch;
        const size_t bytes =
            1 + extension_bytes(lit) + lit + 2 + extension_bytes(extra);
        // Already as big as the input: incompressible, stop wasting work.
        if (bytes >= static_cast<size_t>(op_end - op)) {
          out.truncate(start);
          return false;
        }
        op = emit_literals(op, src + anchor, lit, extra < 15 ? extra : 15);
        store_be16(op, static_cast<uint16_t>(ip - cpos));
        op += 2;
        if (extra >= 15) op = emit_length(op, extra - 15);

        ip += len;
        anchor = ip;
        continue;
      }
    }
    ++ip;
  }

  // Final literals-only sequence (no offset follows; the decoder knows by
  // reaching the end of input).
  const size_t lit = n - anchor;
  const size_t bytes = 1 + extension_bytes(lit) + lit;
  if (bytes >= static_cast<size_t>(op_end - op)) {
    out.truncate(start);
    return false;
  }
  op = emit_literals(op, src + anchor, lit, 0);
  out.truncate(start + static_cast<size_t>(op - op_begin));
  return true;
}

void lz_decompress(std::span<const uint8_t> comp, uint8_t* dst,
                   size_t raw_len) {
  const uint8_t* in = comp.data();
  const uint8_t* const in_end = in + comp.size();
  size_t written = 0;

  // Reads a 255-run length extension when the token nibble saturated.
  auto read_length = [&](size_t base) -> size_t {
    size_t len = base;
    if (base == 15) {
      uint8_t b;
      do {
        if (in == in_end) corrupt("truncated length extension");
        b = *in++;
        len += b;
      } while (b == 255);
    }
    return len;
  };

  if (comp.empty() && raw_len != 0) corrupt("empty compressed stream");
  while (in != in_end) {
    const uint8_t token = *in++;
    const size_t lit = read_length(token >> 4);
    if (lit > static_cast<size_t>(in_end - in)) {
      corrupt("literal run past end of input");
    }
    if (lit > raw_len - written) corrupt("literal run past end of output");
    std::memcpy(dst + written, in, lit);
    in += lit;
    written += lit;

    if (in == in_end) break;  // final literals-only sequence

    if (in_end - in < 2) corrupt("truncated match offset");
    const size_t offset = (size_t{in[0]} << 8) | in[1];
    in += 2;
    if (offset == 0 || offset > written) corrupt("match offset out of range");
    const size_t match = kMinMatch + read_length(token & 0xF);
    if (match > raw_len - written) corrupt("match run past end of output");
    const uint8_t* from = dst + written - offset;
    if (offset >= match) {
      std::memcpy(dst + written, from, match);
    } else {
      // The match overlaps its own output (RLE-style): byte by byte.
      for (size_t i = 0; i < match; ++i) dst[written + i] = from[i];
    }
    written += match;
  }
  if (written != raw_len) corrupt("decompressed size mismatch");
}

std::vector<uint8_t> lz_decompress(std::span<const uint8_t> comp,
                                   size_t raw_len) {
  if (raw_len > kMaxFramedBody) corrupt("raw length implausible");
  std::vector<uint8_t> out(raw_len);
  lz_decompress(comp, out.data(), raw_len);
  return out;
}

// --- Record payload envelope ------------------------------------------------

bool compress_record_payload(std::span<const uint8_t> head,
                             std::span<const uint8_t> body, Buffer& out) {
  const size_t raw_len = head.size() + body.size();
  out.clear();
  if (raw_len < kMinCompressInput || raw_len > kMaxFramedBody) return false;
  out.append_u32(static_cast<uint32_t>(raw_len));
  bool ok;
  if (head.empty()) {
    ok = lz_compress(body, out);
  } else if (body.empty()) {
    ok = lz_compress(head, out);
  } else {
    std::vector<uint8_t> joined;
    joined.reserve(raw_len);
    joined.insert(joined.end(), head.begin(), head.end());
    joined.insert(joined.end(), body.begin(), body.end());
    ok = lz_compress(joined, out);
  }
  // The 4-byte raw_len prefix counts against the savings.
  if (!ok || out.size() >= raw_len) {
    out.clear();
    return false;
  }
  return true;
}

std::vector<uint8_t> decompress_record_payload(
    std::span<const uint8_t> payload) {
  if (payload.size() < 4) corrupt("compressed record too short");
  const uint32_t raw_len = load_be32(payload.data());
  if (raw_len > kMaxFramedBody) corrupt("compressed record raw length");
  return lz_decompress(payload.subspan(4), raw_len);
}

// --- Wire diff-section envelope ---------------------------------------------

bool compress_section_in_place(Buffer& buf, size_t method_offset) {
  check_internal(method_offset < buf.size(), "method offset past end");
  const size_t raw_len = buf.size() - method_offset - 1;
  if (raw_len < kMinCompressInput) return false;
  // Compress into a scratch buffer first: appending to `buf` while reading
  // from it could reallocate the storage out from under the source span.
  static thread_local Buffer scratch;
  scratch.clear();
  if (!lz_compress({buf.data() + method_offset + 1, raw_len}, scratch)) {
    return false;
  }
  // The envelope adds 8 bytes of lengths; require a real saving.
  if (scratch.size() + 8 >= raw_len) return false;
  buf.truncate(method_offset);
  buf.append_u8(payload_method::kLz);
  buf.append_u32(static_cast<uint32_t>(scratch.size()));
  buf.append_u32(static_cast<uint32_t>(raw_len));
  buf.append(scratch.span());
  return true;
}

bool read_compressed_section(BufReader& in, std::vector<uint8_t>& scratch) {
  const uint8_t method = in.read_u8();
  if (method == payload_method::kRaw) return false;
  if (method != payload_method::kLz) corrupt("unknown payload method");
  const uint32_t comp_len = in.read_u32();
  const uint32_t raw_len = in.read_u32();
  if (raw_len > kMaxFramedBody) corrupt("section raw length implausible");
  if (comp_len > in.remaining()) corrupt("section truncated");
  auto comp = in.read_bytes(comp_len);
  scratch.resize(raw_len);
  lz_decompress(comp, scratch.data(), raw_len);
  return true;
}

// --- CRC32C record framing --------------------------------------------------

void build_record_prefix(uint8_t tag, std::span<const uint8_t> head,
                         std::span<const uint8_t> body,
                         uint8_t prefix[kFramedPrefixBytes]) {
  const size_t body_len = 1 + head.size() + body.size();
  check_internal(body_len <= kMaxFramedBody, "framed record too large");
  uint32_t crc = crc32c(&tag, 1);
  crc = crc32c_extend(crc, head);
  crc = crc32c_extend(crc, body);
  store_be32(prefix, static_cast<uint32_t>(body_len));
  store_be32(prefix + 4, crc);
  prefix[kFramedHeaderBytes] = tag;
}

void append_framed_record(Buffer& out, uint8_t tag,
                          std::span<const uint8_t> head,
                          std::span<const uint8_t> body) {
  uint8_t prefix[kFramedPrefixBytes];
  build_record_prefix(tag, head, body, prefix);
  out.append(prefix, sizeof prefix);
  out.append(head);
  out.append(body);
}

RecordScanner::Status RecordScanner::next(ScannedRecord* rec) {
  if (pos_ == data_.size()) return Status::kEnd;
  if (data_.size() - pos_ < kFramedHeaderBytes) return Status::kTorn;
  const uint8_t* p = data_.data() + pos_;
  const uint32_t body_len = load_be32(p);
  const uint32_t crc = load_be32(p + 4);
  if (body_len == 0 || body_len > kMaxFramedBody) return Status::kTorn;
  if (data_.size() - pos_ - kFramedHeaderBytes < body_len) return Status::kTorn;
  const uint8_t* body = p + kFramedHeaderBytes;
  if (crc32c(body, body_len) != crc) return Status::kTorn;
  rec->tag = body[0];
  rec->payload = {body + 1, body_len - 1};
  pos_ += kFramedHeaderBytes + body_len;
  rec->end_offset = base_ + pos_;
  return Status::kRecord;
}

}  // namespace iw
