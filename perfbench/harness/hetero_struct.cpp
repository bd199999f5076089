// hetero_struct: a big-endian 32-bit writer and a native reader share the
// paper's 1 MB Fig-4 `mix` shape over the in-process transport, no WAL.
// Closed loop, one thread: a write critical section changing a seeded 5% of
// the elements, then a Full-coherence read critical section that checks
// every changed field. Nearly all the time is client diffing, translation
// and swizzling plus the server's store apply.
#include "client/view.hpp"
#include "net/inproc.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/rand.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using iw::client::View;

// struct{int; double; string<64>; string<4>; int*}[10922]: 1 MB native.
constexpr uint32_t kElements = 10922;
constexpr uint32_t kUnitsPerElement = 5;
constexpr uint32_t kChanged = kElements / 20;
constexpr uint32_t kTargets = 1024;
constexpr int kWarmupSteps = 10;
const std::string kUrl = "bench/hetero";

struct Element {
  int32_t i = 0;
  double d = 0;
  std::string s, ss;
  uint32_t target = 0;  ///< index into the int32 "targets" block
};

const iw::TypeDescriptor* mix_type(iw::TypeRegistry& reg) {
  return reg.array_of(
      reg.struct_builder("mix")
          .field("i", reg.primitive(iw::PrimitiveKind::kInt32))
          .field("d", reg.primitive(iw::PrimitiveKind::kFloat64))
          .field("s", reg.string_type(64))
          .field("ss", reg.string_type(4))
          .field("p", reg.pointer_to(reg.primitive(iw::PrimitiveKind::kInt32)))
          .finish(),
      kElements);
}

class HeteroStruct final : public Workload {
 public:
  explicit HeteroStruct(const Env& env)
      : rng_(env.seed), core_(server_, SpanKind::kServer) {}

  const char* loop() const override { return "closed"; }
  uint64_t rss_commits() const override { return 2000; }

  void setup() override {
    auto factory = [this](const std::string&) {
      return std::make_shared<TimingChannel>(
          std::make_shared<iw::InProcChannel>(core_));
    };
    iw::Client::Options wopts;
    wopts.platform = iw::Platform::sparc32();
    writer_ = std::make_unique<iw::Client>(factory, wopts);
    reader_ = std::make_unique<iw::Client>(factory, iw::Client::Options{});

    iw::TypeRegistry& reg = writer_->types();
    seg_w_ = writer_->open_segment(kUrl);
    writer_->write_lock(seg_w_);
    auto* targets = static_cast<uint8_t*>(writer_->malloc_block(
        seg_w_, reg.array_of(reg.primitive(iw::PrimitiveKind::kInt32), kTargets),
        "targets"));
    View tv(*writer_, seg_w_->heap().find_by_name("targets"));
    for (uint32_t k = 0; k < kTargets; ++k) {
      tv.set_int(k, k);
      target_addr_.push_back(targets + 4 * k);
    }
    writer_->malloc_block(seg_w_, mix_type(reg), "data");
    data_w_ = seg_w_->heap().find_by_name("data");
    View wv(*writer_, data_w_);
    model_.resize(kElements);
    perm_.resize(kElements);
    for (uint32_t e = 0; e < kElements; ++e) {
      perm_[e] = e;
      model_[e] = random_element();
      store(wv, e, model_[e]);
    }
    writer_->write_unlock(seg_w_);
    for (uint32_t k = 0; k < kTargets; ++k) {
      target_mip_.push_back(writer_->ptr_to_mip(target_addr_[k]));
    }

    seg_r_ = reader_->open_segment(kUrl);
    reader_->read_lock(seg_r_);
    reader_->read_unlock(seg_r_);
    data_r_ = seg_r_->heap().find_by_name("data");
    Phase warm;
    for (int i = 0; i < kWarmupSteps; ++i) step(warm);
    if (warm.failed != 0) throw iw::Error(iw::ErrorCode::kState, "warm-up failed");
  }

  Phase run(double seconds) override {
    Phase p;
    int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      try {
        step(p);
      } catch (const iw::Error&) {
        ++p.failed;
        break;  // lock state is unknown after a thrown lock call
      }
    }
    return p;
  }

  Counters counters() const override {
    Counters c;
    add_client(c, *writer_);
    add_client(c, *reader_);
    add_server(c, server_, {kUrl});
    return c;
  }

  uint64_t verify(std::map<std::string, double>&) override {
    // Every element, changed or not, must match the writer's model.
    reader_->read_lock(seg_r_);
    View rv(*reader_, data_r_);
    uint64_t bad = 0;
    for (uint32_t e = 0; e < kElements; ++e) bad += !matches(rv, e, model_[e]);
    reader_->read_unlock(seg_r_);
    return bad == 0 ? 0 : 1;
  }

 private:
  Element random_element() {
    Element el;
    el.i = static_cast<int32_t>(rng_());
    el.d = static_cast<double>(static_cast<int64_t>(rng_() >> 11)) * 0x1p-20;
    el.s = random_string(64);
    el.ss = random_string(4);
    el.target = static_cast<uint32_t>(rng_.below(kTargets));
    return el;
  }

  std::string random_string(uint32_t capacity) {
    std::string s(rng_.below(capacity), ' ');
    for (char& c : s) c = static_cast<char>('a' + rng_.below(26));
    return s;
  }

  void store(View& v, uint32_t e, const Element& el) {
    uint64_t u = uint64_t{e} * kUnitsPerElement;
    v.set_int(u, el.i);
    v.set_f64(u + 1, el.d);
    v.set_string(u + 2, el.s);
    v.set_string(u + 3, el.ss);
    v.set_ptr(u + 4, target_addr_[el.target]);
  }

  bool matches(const View& v, uint32_t e, const Element& el) {
    uint64_t u = uint64_t{e} * kUnitsPerElement;
    return v.get_int(u) == el.i && v.get_f64(u + 1) == el.d &&
           v.get_string(u + 2) == el.s && v.get_string(u + 3) == el.ss &&
           reader_->ptr_to_mip(v.get_ptr(u + 4)) == target_mip_[el.target];
  }

  /// One write critical section on the writer, one read on the reader.
  void step(Phase& p) {
    // Inputs are drawn before the clock starts.
    std::vector<uint32_t> changed(kChanged);
    std::vector<Element> values(kChanged);
    for (uint32_t j = 0; j < kChanged; ++j) {
      std::swap(perm_[j], perm_[j + rng_.below(kElements - j)]);
      changed[j] = perm_[j];
      values[j] = random_element();
    }

    p.attempted += 2;
    int64_t t0 = now_ns();
    TimedLock::run(LockOp::kWriteLock, [&] { writer_->write_lock(seg_w_); });
    View wv(*writer_, data_w_);
    for (uint32_t j = 0; j < kChanged; ++j) store(wv, changed[j], values[j]);
    TimedLock::run(LockOp::kWriteUnlock, [&] { writer_->write_unlock(seg_w_); });
    p.add_commit(t0);
    for (uint32_t j = 0; j < kChanged; ++j) model_[changed[j]] = values[j];

    bool ok = true;
    int64_t t2 = now_ns();
    TimedLock::run(LockOp::kReadLock, [&] { reader_->read_lock(seg_r_); });
    View rv(*reader_, data_r_);
    for (uint32_t j = 0; j < kChanged; ++j) {
      ok = ok && matches(rv, changed[j], values[j]);
    }
    TimedLock::run(LockOp::kReadUnlock, [&] { reader_->read_unlock(seg_r_); });
    p.add_read(t2);
    if (!ok) ++p.failed;
  }

  iw::SplitMix64 rng_;
  // Declaration order is teardown order reversed: clients go before the
  // server their channels point into.
  iw::server::SegmentServer server_;
  TimingCore core_;
  std::unique_ptr<iw::Client> writer_;
  std::unique_ptr<iw::Client> reader_;
  iw::ClientSegment* seg_w_ = nullptr;
  iw::ClientSegment* seg_r_ = nullptr;
  const iw::client::BlockHeader* data_w_ = nullptr;
  const iw::client::BlockHeader* data_r_ = nullptr;
  std::vector<uint8_t*> target_addr_;   ///< writer-local target addresses
  std::vector<std::string> target_mip_; ///< their machine-independent names
  std::vector<Element> model_;
  std::vector<uint32_t> perm_;
};

}  // namespace

std::unique_ptr<Workload> make_hetero_struct(const Env& env) {
  return std::make_unique<HeteroStruct>(env);
}

}  // namespace perfbench
