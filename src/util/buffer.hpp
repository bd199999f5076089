// Growable byte buffer and cursor used throughout the wire-format layer.
//
// Buffer is a thin, append-oriented byte vector with primitive-typed append
// helpers in canonical (big-endian) order. BufReader is a bounds-checked
// cursor over immutable bytes; it throws Error(kProtocol) on overrun, which
// is the right behaviour when the bytes came off the network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/endian.hpp"
#include "util/error.hpp"

namespace iw {

/// One contiguous piece of an iovec-style scatter/gather chain. Borrowed:
/// the bytes must stay alive while the slice is in use.
struct IoSlice {
  const void* data = nullptr;
  size_t len = 0;
};

/// Append-oriented byte buffer used to build wire-format messages.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t reserve) { bytes_.reserve(reserve); }

  const uint8_t* data() const noexcept { return bytes_.data(); }
  uint8_t* data() noexcept { return bytes_.data(); }
  size_t size() const noexcept { return bytes_.size(); }
  bool empty() const noexcept { return bytes_.empty(); }
  void clear() noexcept { bytes_.clear(); }
  void reserve(size_t n) { bytes_.reserve(n); }

  std::span<const uint8_t> span() const noexcept { return bytes_; }

  /// Appends raw bytes verbatim.
  void append(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }
  void append(std::span<const uint8_t> s) { append(s.data(), s.size()); }

  void append_u8(uint8_t v) { bytes_.push_back(v); }
  void append_u16(uint16_t v) { grow_and_store(2, [&](void* p) { store_be16(p, v); }); }
  void append_u32(uint32_t v) { grow_and_store(4, [&](void* p) { store_be32(p, v); }); }
  void append_u64(uint64_t v) { grow_and_store(8, [&](void* p) { store_be64(p, v); }); }
  void append_i32(int32_t v) { append_u32(static_cast<uint32_t>(v)); }
  void append_i64(int64_t v) { append_u64(static_cast<uint64_t>(v)); }
  void append_f32(float v) { grow_and_store(4, [&](void* p) { store_be_float(p, v); }); }
  void append_f64(double v) { grow_and_store(8, [&](void* p) { store_be_double(p, v); }); }

  /// Appends a length-prefixed (u32) byte string.
  void append_lp_string(std::string_view s) {
    // One growth for the length and the bytes.
    uint8_t* p = extend(4 + s.size());
    store_be32(p, static_cast<uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(p + 4, s.data(), s.size());
  }

  /// Grows by `n` bytes and returns a pointer to the new region (bulk
  /// writers fill it directly, avoiding per-element size checks).
  uint8_t* extend(size_t n) {
    size_t off = bytes_.size();
    bytes_.resize(off + n);
    return bytes_.data() + off;
  }

  /// Shrinks the buffer back to `n` bytes, keeping capacity. Lets a writer
  /// that appended a trial encoding (say, a compressed section that did not
  /// pay) discard it without reallocating.
  void truncate(size_t n) {
    check_internal(n <= bytes_.size(), "truncate past end");
    bytes_.resize(n);
  }

  /// Reserves `n` bytes and returns their offset; patch later via patch_u32.
  size_t append_placeholder_u32() {
    size_t off = bytes_.size();
    append_u32(0);
    return off;
  }
  void patch_u32(size_t offset, uint32_t v) {
    check_internal(offset + 4 <= bytes_.size(), "patch_u32 out of range");
    store_be32(bytes_.data() + offset, v);
  }

  std::vector<uint8_t> take() noexcept { return std::move(bytes_); }

  /// Replaces the buffer's storage with `storage`, keeping its capacity.
  /// Pairs with take(): a transport that moved the bytes out can hand the
  /// (now otherwise dead) allocation back for the caller to reuse.
  void adopt(std::vector<uint8_t> storage) noexcept {
    bytes_ = std::move(storage);
  }

  /// Whole-buffer view for scatter/gather I/O.
  IoSlice slice() const noexcept { return {bytes_.data(), bytes_.size()}; }

 private:
  template <typename F>
  void grow_and_store(size_t n, F f) {
    size_t off = bytes_.size();
    bytes_.resize(off + n);
    f(bytes_.data() + off);
  }

  std::vector<uint8_t> bytes_;
};

/// A fixed-capacity chain of borrowed byte ranges — the iovec view the
/// transports use to send a frame header and its payload in one vectored
/// syscall without gluing them into a fresh allocation.
class IoChain {
 public:
  static constexpr size_t kMaxSlices = 4;

  void add(const void* p, size_t n) {
    if (n == 0) return;
    check_internal(count_ < kMaxSlices, "IoChain overflow");
    slices_[count_++] = {p, n};
    total_ += n;
  }
  void add(const Buffer& buffer) { add(buffer.data(), buffer.size()); }
  void add(IoSlice s) { add(s.data, s.len); }

  const IoSlice* slices() const noexcept { return slices_; }
  size_t count() const noexcept { return count_; }
  size_t total_bytes() const noexcept { return total_; }

 private:
  IoSlice slices_[kMaxSlices] = {};
  size_t count_ = 0;
  size_t total_ = 0;
};

/// Bounds-checked forward cursor over immutable bytes (typically a message
/// received from the network). Overruns throw Error(kProtocol).
class BufReader {
 public:
  BufReader(const void* p, size_t n)
      : p_(static_cast<const uint8_t*>(p)), end_(p_ + n) {}
  explicit BufReader(std::span<const uint8_t> s) : BufReader(s.data(), s.size()) {}

  size_t remaining() const noexcept { return static_cast<size_t>(end_ - p_); }
  bool at_end() const noexcept { return p_ == end_; }
  const uint8_t* cursor() const noexcept { return p_; }

  uint8_t read_u8() { return *take(1); }
  uint16_t read_u16() { return load_be16(take(2)); }
  uint32_t read_u32() { return load_be32(take(4)); }
  uint64_t read_u64() { return load_be64(take(8)); }
  int32_t read_i32() { return static_cast<int32_t>(read_u32()); }
  int64_t read_i64() { return static_cast<int64_t>(read_u64()); }
  float read_f32() { return load_be_float(take(4)); }
  double read_f64() { return load_be_double(take(8)); }

  /// Reads `n` raw bytes, returning a view into the underlying storage.
  std::span<const uint8_t> read_bytes(size_t n) {
    return {take(n), n};
  }

  /// Reads a u32-length-prefixed byte string as a std::string.
  std::string read_lp_string() {
    return std::string(read_lp_view());
  }

  /// Reads a u32-length-prefixed byte string as a view into the underlying
  /// storage — no allocation. The view is only valid while the buffer the
  /// reader was constructed over stays alive and unmodified.
  std::string_view read_lp_view() {
    uint32_t n = read_u32();
    auto s = read_bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// Skips `n` bytes.
  void skip(size_t n) { take(n); }

 private:
  const uint8_t* take(size_t n) {
    if (remaining() < n) {
      throw Error(ErrorCode::kProtocol, "message truncated");
    }
    const uint8_t* p = p_;
    p_ += n;
    return p;
  }

  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace iw
