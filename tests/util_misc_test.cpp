// Tests for the small util pieces: errors, logging levels, RNG determinism,
// seqlock reader/writer protocol, generated counter tables.
#include <gtest/gtest.h>

#include <thread>

#include "util/counters.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"
#include "util/seqlock.hpp"
#include "util/stopwatch.hpp"

namespace iw {
namespace {

TEST(Error, CarriesCodeAndMessage) {
  Error e(ErrorCode::kNotFound, "segment foo");
  EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  EXPECT_STREQ(e.what(), "NotFound: segment foo");
}

TEST(Error, ThrowErrnoPreservesContext) {
  errno = ENOENT;
  try {
    throw_errno("open(/nope)");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("open(/nope)"), std::string::npos);
  }
}

TEST(Error, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(i)), "Unknown");
  }
}

TEST(Logging, LevelGateWorks) {
  LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  IW_LOG(kError) << "this must not crash even when suppressed";
  set_log_level(old);
}

TEST(Rand, DeterministicAcrossInstances) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rand, BelowStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rand, UniformInUnitInterval) {
  SplitMix64 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.elapsed_ns(), 5'000'000);
  sw.restart();
  EXPECT_LT(sw.elapsed_ns(), 5'000'000);
}

TEST(SeqLock, ReaderSeesConsistentPairs) {
  SeqLock lock;
  uint64_t a = 1, b = ~1ULL;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i < 200000 && !stop.load(); ++i) {
      lock.write_begin();
      a = i;
      b = ~i;
      lock.write_end();
    }
    stop = true;
  });
  uint64_t reads = 0;
  while (!stop.load() && reads < 100000) {
    uint32_t seq = lock.read_begin();
    uint64_t ra = a, rb = b;
    if (lock.read_retry(seq)) continue;
    ASSERT_EQ(ra, ~rb) << "torn read";
    ++reads;
  }
  stop = true;
  writer.join();
}

#define IW_SAMPLE_COUNTERS(X)                  \
  X(alpha)                                     \
  X(beta)  /* a doc comment inside the list */ \
  X(gamma)                                     \
  X(delta)

struct SampleStats {
  IW_COUNTER_FIELDS(IW_SAMPLE_COUNTERS)
};

struct SampleCounters {
  IW_ATOMIC_COUNTERS(SampleStats, IW_SAMPLE_COUNTERS)
};

TEST(Counters, SnapshotCopiesAndResetZeroesEveryCounter) {
  SampleCounters c;
  c.alpha.store(1);
  c.beta.store(2);
  c.gamma.store(3);
  c.delta.store(4);

  SampleStats s = c.snapshot();
  EXPECT_EQ(s.alpha, 1u);
  EXPECT_EQ(s.beta, 2u);
  EXPECT_EQ(s.gamma, 3u);
  EXPECT_EQ(s.delta, 4u);

  // load_into fills only the list's fields of a struct that splices it.
  struct Spliced {
    uint64_t before = 7;
    IW_COUNTER_FIELDS(IW_SAMPLE_COUNTERS)
    uint64_t after = 9;
  } w;
  c.load_into(w);
  EXPECT_EQ(w.before, 7u);
  EXPECT_EQ(w.alpha, 1u);
  EXPECT_EQ(w.beta, 2u);
  EXPECT_EQ(w.gamma, 3u);
  EXPECT_EQ(w.delta, 4u);
  EXPECT_EQ(w.after, 9u);

  c.reset();
  EXPECT_EQ(c.alpha.load(), 0u);
  EXPECT_EQ(c.beta.load(), 0u);
  EXPECT_EQ(c.gamma.load(), 0u);
  EXPECT_EQ(c.delta.load(), 0u);
}

}  // namespace
}  // namespace iw
