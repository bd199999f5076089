// Span recording at the three seams the benchmark owns outside the library:
//
//   client  — timers around Client::{read,write}_{lock,unlock} (TimedLock)
//   net     — a ClientChannel decorator returned by the ChannelFactory
//   server  — a ServerCore decorator in front of the primary and replica
//
// Spans live in per-thread buffers until the traced phase ends. Recording
// is gated by one flag, so the decorators cost a branch when tracing is off.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

int64_t now_ns();

enum class SpanKind : uint8_t {
  kClient,   ///< one Client lock call; op is a LockOp
  kNet,      ///< one ClientChannel::call; op is the MsgType
  kServer,   ///< primary ServerCore::handle; op is the MsgType
  kReplica,  ///< replica ServerCore::handle; op is the MsgType
};

enum class LockOp : uint8_t { kReadLock, kReadUnlock, kWriteLock, kWriteUnlock };

struct Span {
  SpanKind kind = SpanKind::kClient;
  uint8_t op = 0;
  uint64_t id = 0;
  /// Net spans: the client span whose lock call issued them (0 = none, e.g.
  /// the revoke-ack worker). Server spans get theirs at analysis time.
  uint64_t parent = 0;
  /// Net spans: the channel's client id (from its kHello). Server spans:
  /// the session id, mapped to a client id through Tracer::client_of.
  uint64_t peer = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer.
  void record(const Span& span);
  /// Moves every buffered span out (call with tracing disabled).
  std::vector<Span> drain();

  /// Learned from kHello frames at both seams; recorded even when tracing
  /// is off because connections are made during set-up.
  void map_session(uint64_t session, uint64_t client_id);
  std::unordered_map<uint64_t, uint64_t> sessions() const;

 private:
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  ThreadBuffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::unordered_map<uint64_t, uint64_t> sessions_;
};

/// Runs one Client lock call, recording a client span when tracing.
class TimedLock {
 public:
  template <class F>
  static void run(LockOp op, F&& call) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) {
      call();
      return;
    }
    Span s;
    s.kind = SpanKind::kClient;
    s.op = static_cast<uint8_t>(op);
    s.id = t.next_id();
    s.start_ns = now_ns();
    current_ = s.id;
    try {
      call();
    } catch (...) {
      current_ = 0;
      throw;
    }
    current_ = 0;
    s.end_ns = now_ns();
    t.record(s);
  }
  /// The client span open on this thread (0 = none).
  static uint64_t current() noexcept { return current_; }

 private:
  static thread_local uint64_t current_;
};

/// ClientChannel decorator: times every call.
class TimingChannel final : public iw::ClientChannel {
 public:
  explicit TimingChannel(std::shared_ptr<iw::ClientChannel> inner)
      : inner_(std::move(inner)) {}

  using iw::ClientChannel::call;
  iw::Frame call(iw::MsgType type, iw::Buffer& payload) override;
  void set_notify_handler(std::function<void(const iw::Frame&)> fn) override {
    inner_->set_notify_handler(std::move(fn));
  }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t bytes_received() const override { return inner_->bytes_received(); }
  uint64_t session_epoch() const override { return inner_->session_epoch(); }
  iw::ChannelFaultStats fault_stats() const override {
    return inner_->fault_stats();
  }
  bool supports_lock_caching() const override {
    return inner_->supports_lock_caching();
  }
  bool supports_payload_compression() const override {
    return inner_->supports_payload_compression();
  }
  void shutdown() noexcept override { inner_->shutdown(); }

 private:
  std::shared_ptr<iw::ClientChannel> inner_;
  std::atomic<uint64_t> client_id_{0};
};

/// ServerCore decorator: times every handled request. The same seam the
/// global-lock mode of bench/server_scaling.cpp uses.
class TimingCore final : public iw::ServerCore {
 public:
  TimingCore(iw::ServerCore& inner, SpanKind kind) : inner_(inner), kind_(kind) {}

  void on_connect(iw::SessionId session, iw::Notifier notify) override {
    inner_.on_connect(session, std::move(notify));
  }
  void on_disconnect(iw::SessionId session) override {
    inner_.on_disconnect(session);
  }
  iw::Frame handle(iw::SessionId session, const iw::Frame& request) override;

 private:
  iw::ServerCore& inner_;
  SpanKind kind_;
};

/// Per-layer numbers derived from one traced phase's spans.
std::map<std::string, double> analyze_spans(
    const std::vector<Span>& spans,
    const std::unordered_map<uint64_t, uint64_t>& sessions);

}  // namespace perfbench
