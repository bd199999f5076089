// Counter tables: one X-macro list per stats struct.
//
// A stats struct is declared once, as a list of counter names,
//
//   #define IW_FOO_COUNTERS(X) X(hits) X(misses)
//
// and both of its forms are generated from that list:
//
//   struct FooStats { IW_COUNTER_FIELDS(IW_FOO_COUNTERS) };   // plain
//   struct FooCounters {                                       // storage
//     IW_ATOMIC_COUNTERS(FooStats, IW_FOO_COUNTERS)
//   };
//
// The storage holds one relaxed std::atomic<uint64_t> per counter, so a hot
// path bumps a counter without a lock and a scraper snapshots it without
// one. Counters are independent: a snapshot is not a consistent cut across
// them, and nothing orders them against other memory.
//
// A snapshot struct may splice several lists (and carry derived fields after
// them); load_into() fills any struct that declares the list's fields.
// Storage whose snapshot lives elsewhere under other names expands the list
// with IW_COUNTER_ATOMIC alone.
//
// Doc comments inside a list must be /* */ comments: a // comment on a
// backslash-continued line swallows every entry after it.
#pragma once

#include <atomic>
#include <cstdint>

#define IW_COUNTER_FIELD(name) uint64_t name = 0;
#define IW_COUNTER_ATOMIC(name) std::atomic<uint64_t> name{0};
#define IW_COUNTER_LOAD_(name) out.name = name.load(std::memory_order_relaxed);
#define IW_COUNTER_ZERO_(name) name.store(0, std::memory_order_relaxed);

/// Plain uint64_t fields (zero-initialized), one per counter of LIST.
#define IW_COUNTER_FIELDS(LIST) LIST(IW_COUNTER_FIELD)

/// Relaxed-atomic storage, one std::atomic<uint64_t> per counter of LIST,
/// plus:
///   Snapshot snapshot() const — every counter, loaded into a Snapshot;
///   void load_into(Out&) const — the same loads into any struct that
///                                splices LIST's fields;
///   void reset()               — every counter back to zero.
#define IW_ATOMIC_COUNTERS(Snapshot, LIST)  \
  LIST(IW_COUNTER_ATOMIC)                   \
  Snapshot snapshot() const noexcept {      \
    Snapshot out{};                         \
    load_into(out);                         \
    return out;                             \
  }                                         \
  template <class Out>                      \
  void load_into(Out& out) const noexcept { \
    LIST(IW_COUNTER_LOAD_)                  \
  }                                         \
  void reset() noexcept { LIST(IW_COUNTER_ZERO_) }
