#include "trace.hpp"

#include <algorithm>
#include <chrono>

#include "counters.hpp"

namespace perfbench {

using iw::MsgType;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local uint64_t TimedLock::current_ = 0;

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local() {
  // The shared_ptr in buffers_ keeps a buffer alive after its thread ends
  // (reactor workers come and go), so drain() still sees its spans.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard lock(mu_);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::record(const Span& span) {
  ThreadBuffer& b = local();
  std::lock_guard lock(b.mu);
  b.spans.push_back(span);
}

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  std::lock_guard lock(mu_);
  for (auto& b : buffers_) {
    std::lock_guard bl(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

void Tracer::map_session(uint64_t session, uint64_t client_id) {
  std::lock_guard lock(mu_);
  sessions_[session] = client_id;
}

std::unordered_map<uint64_t, uint64_t> Tracer::sessions() const {
  std::lock_guard lock(mu_);
  return sessions_;
}

namespace {

/// The u64 client id a kHello payload starts with (0 when malformed).
uint64_t hello_client_id(const uint8_t* data, size_t size) {
  if (size < 8) return 0;
  return iw::BufReader(data, size).read_u64();
}

}  // namespace

iw::Frame TimingChannel::call(MsgType type, iw::Buffer& payload) {
  if (type == MsgType::kHello) {
    client_id_.store(hello_client_id(payload.data(), payload.size()),
                     std::memory_order_relaxed);
  }
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return inner_->call(type, payload);
  Span s;
  s.kind = SpanKind::kNet;
  s.op = static_cast<uint8_t>(type);
  s.id = t.next_id();
  s.parent = TimedLock::current();
  s.peer = client_id_.load(std::memory_order_relaxed);
  s.start_ns = now_ns();
  iw::Frame response = inner_->call(type, payload);
  s.end_ns = now_ns();
  t.record(s);
  return response;
}

iw::Frame TimingCore::handle(iw::SessionId session, const iw::Frame& request) {
  Tracer& t = Tracer::instance();
  if (kind_ == SpanKind::kServer && request.type == MsgType::kHello) {
    t.map_session(session, hello_client_id(request.payload.data(),
                                           request.payload.size()));
  }
  if (!t.enabled()) return inner_.handle(session, request);
  Span s;
  s.kind = kind_;
  s.op = static_cast<uint8_t>(request.type);
  s.id = t.next_id();
  s.peer = session;
  s.start_ns = now_ns();
  iw::Frame response = inner_.handle(session, request);
  s.end_ns = now_ns();
  t.record(s);
  return response;
}

namespace {

const char* msg_name(uint8_t op) {
  switch (static_cast<MsgType>(op)) {
    case MsgType::kAcquireRead: return "acquire_read";
    case MsgType::kReleaseRead: return "release_read";
    case MsgType::kAcquireWrite: return "acquire_write";
    case MsgType::kReleaseWrite: return "release_write";
    default: return nullptr;
  }
}

double us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void put_p50_p99(std::map<std::string, double>& out, const std::string& name,
                 std::vector<double> v) {
  out[name + ".p50"] = percentile(v, 0.50);
  out[name + ".p99"] = percentile(v, 0.99);
}

}  // namespace

std::map<std::string, double> analyze_spans(
    const std::vector<Span>& spans,
    const std::unordered_map<uint64_t, uint64_t>& sessions) {
  std::map<std::string, double> out;

  // A server span's parent is the net span of the same client and message
  // type whose interval contains it; index server spans for that lookup.
  struct Interval {
    int64_t start, end;
  };
  std::map<std::pair<uint64_t, uint8_t>, std::vector<Interval>> served;
  std::map<std::string, std::vector<double>> handle_us;
  int64_t busy_ns = 0;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kServer && s.kind != SpanKind::kReplica) continue;
    busy_ns += s.end_ns - s.start_ns;
    if (s.kind == SpanKind::kReplica) {
      if (static_cast<MsgType>(s.op) == MsgType::kWalAppend) {
        handle_us["server.repl.append_us"].push_back(us(s.end_ns - s.start_ns));
      }
      continue;
    }
    if (const char* n = msg_name(s.op)) {
      handle_us[std::string("server.handle_us.") + n].push_back(
          us(s.end_ns - s.start_ns));
    }
    auto it = sessions.find(s.peer);
    if (it != sessions.end()) {
      served[{it->second, s.op}].push_back({s.start_ns, s.end_ns});
    }
  }
  for (auto& [key, v] : served) {
    std::sort(v.begin(), v.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
  }

  std::unordered_map<uint64_t, int64_t> child_ns;
  std::map<std::string, std::vector<double>> call_us;
  std::vector<double> net_self_us;
  uint64_t calls = 0;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kNet) continue;
    ++calls;
    int64_t dur = s.end_ns - s.start_ns;
    if (s.parent != 0) child_ns[s.parent] += dur;
    if (const char* n = msg_name(s.op)) {
      call_us[std::string("net.call_us.") + n].push_back(us(dur));
    }
    auto it = served.find({s.peer, s.op});
    if (it == served.end()) continue;
    const std::vector<Interval>& v = it->second;
    auto first = std::lower_bound(
        v.begin(), v.end(), s.start_ns,
        [](const Interval& a, int64_t t) { return a.start < t; });
    if (first != v.end() && first->end <= s.end_ns) {
      net_self_us.push_back(us(dur - (first->end - first->start)));
    }
  }

  std::vector<double> lock_us[4];
  std::vector<double> client_self_us;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kClient) continue;
    int64_t dur = s.end_ns - s.start_ns;
    lock_us[s.op].push_back(us(dur));
    auto it = child_ns.find(s.id);
    client_self_us.push_back(us(dur - (it == child_ns.end() ? 0 : it->second)));
  }

  put_p50_p99(out, "client.read_lock_us",
              lock_us[static_cast<int>(LockOp::kReadLock)]);
  put_p50_p99(out, "client.write_lock_us",
              lock_us[static_cast<int>(LockOp::kWriteLock)]);
  put_p50_p99(out, "client.write_unlock_us",
              lock_us[static_cast<int>(LockOp::kWriteUnlock)]);
  out["client.self_us.p50"] = percentile(client_self_us, 0.50);
  for (const char* n :
       {"acquire_write", "release_write", "acquire_read", "release_read"}) {
    put_p50_p99(out, std::string("net.call_us.") + n,
                call_us[std::string("net.call_us.") + n]);
  }
  out["net.self_us.p50"] = percentile(net_self_us, 0.50);
  for (const char* n : {"server.handle_us.acquire_write",
                        "server.handle_us.release_write",
                        "server.repl.append_us"}) {
    put_p50_p99(out, n, handle_us[n]);
  }
  out["trace.net_calls"] = static_cast<double>(calls);
  out["trace.server_busy_ns"] = static_cast<double>(busy_ns);
  return out;
}

}  // namespace perfbench
