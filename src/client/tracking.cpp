#include "client/tracking.hpp"

#include <signal.h>
#include <sys/mman.h>

#include <atomic>
#include <cstring>

#include "util/error.hpp"

namespace iw::client {

namespace {

std::atomic<uint64_t> g_fault_count{0};
struct sigaction g_previous_action;

/// Twin page pool: pages released by drop_all_twins are parked here (up to
/// kTwinPoolCap) and reused by the next fault instead of a fresh mmap, so a
/// steady-state write-lock cycle does no map/unmap syscalls at all.
///
/// The pool is guarded by an atomic_flag spinlock. The fault path (a signal
/// handler) only *try-locks*: atomic_flag operations are async-signal-safe,
/// and no code inside the critical section can fault on tracked memory, so
/// a contended flag just means "fall back to mmap" — never a deadlock.
constexpr size_t kTwinPoolCap = 256;
std::atomic_flag g_twin_pool_lock = ATOMIC_FLAG_INIT;
uint8_t* g_twin_pool[kTwinPoolCap];
size_t g_twin_pool_size = 0;

/// Pops a pooled page, or nullptr when the pool is empty or the lock is
/// contended. Async-signal-safe.
uint8_t* twin_pool_pop() noexcept {
  if (g_twin_pool_lock.test_and_set(std::memory_order_acquire)) {
    return nullptr;  // contended: caller falls back to mmap
  }
  uint8_t* page = nullptr;
  if (g_twin_pool_size > 0) {
    page = g_twin_pool[--g_twin_pool_size];
  }
  g_twin_pool_lock.clear(std::memory_order_release);
  return page;
}

/// Parks a page in the pool; returns false (caller munmaps) when full.
/// Called from normal context only, so spinning on the lock is fine.
bool twin_pool_push(uint8_t* page) noexcept {
  while (g_twin_pool_lock.test_and_set(std::memory_order_acquire)) {
  }
  bool parked = false;
  if (g_twin_pool_size < kTwinPoolCap) {
    g_twin_pool[g_twin_pool_size++] = page;
    parked = true;
  }
  g_twin_pool_lock.clear(std::memory_order_release);
  return parked;
}

uint8_t* map_twin_page() noexcept {
  uint8_t* pooled = twin_pool_pop();
  if (pooled != nullptr) return pooled;
  void* p = ::mmap(nullptr, kPageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : static_cast<uint8_t*>(p);
}

void release_twin_page(uint8_t* page) noexcept {
  if (!twin_pool_push(page)) ::munmap(page, kPageSize);
}

/// Creates the twin for `page` if absent (CAS per slot) and re-enables
/// writes. Async-signal-safe: mmap/mprotect/memcpy only.
bool handle_write_fault(Subsegment* subseg, void* addr) noexcept {
  size_t page = (reinterpret_cast<uintptr_t>(addr) -
                 reinterpret_cast<uintptr_t>(subseg->base)) /
                kPageSize;
  uint8_t* page_start = subseg->base + page * kPageSize;
  auto* slot = reinterpret_cast<std::atomic<uint8_t*>*>(&subseg->twins[page]);
  if (slot->load(std::memory_order_acquire) == nullptr) {
    uint8_t* twin = map_twin_page();
    if (twin == nullptr) return false;  // out of memory: let it crash
    std::memcpy(twin, page_start, kPageSize);
    uint8_t* expected = nullptr;
    if (!slot->compare_exchange_strong(expected, twin,
                                       std::memory_order_acq_rel)) {
      ::munmap(twin, kPageSize);  // another thread won the race
    }
  }
  subseg->any_twin.store(true, std::memory_order_release);
  ::mprotect(page_start, kPageSize, PROT_READ | PROT_WRITE);
  g_fault_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void sigsegv_handler(int signo, siginfo_t* info, void* context) {
  if (info != nullptr && info->si_addr != nullptr) {
    Subsegment* subseg = FaultRegistry::instance().find(info->si_addr);
    if (subseg != nullptr && handle_write_fault(subseg, info->si_addr)) {
      return;
    }
  }
  // Not our fault: chain to the previous handler or re-raise with default.
  if (g_previous_action.sa_flags & SA_SIGINFO) {
    if (g_previous_action.sa_sigaction != nullptr) {
      g_previous_action.sa_sigaction(signo, info, context);
      return;
    }
  } else if (g_previous_action.sa_handler != SIG_DFL &&
             g_previous_action.sa_handler != SIG_IGN &&
             g_previous_action.sa_handler != nullptr) {
    g_previous_action.sa_handler(signo);
    return;
  }
  ::signal(SIGSEGV, SIG_DFL);
  ::raise(SIGSEGV);
}

}  // namespace

void install_sigsegv_handler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_sigaction = sigsegv_handler;
  action.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGSEGV, &action, &g_previous_action) != 0) {
    throw_errno("sigaction(SIGSEGV)");
  }
}

uint64_t fault_count() noexcept {
  return g_fault_count.load(std::memory_order_relaxed);
}

void protect_subsegment(Subsegment& subseg) {
  if (::mprotect(subseg.base, subseg.bytes, PROT_READ) != 0) {
    throw_errno("mprotect(PROT_READ)");
  }
}

void protect_subsegment_except(Subsegment& subseg,
                               const std::vector<bool>& skip) {
  check_internal(skip.size() == subseg.page_count(), "skip vector size");
  size_t page = 0;
  while (page < skip.size()) {
    if (skip[page]) {
      ++page;
      continue;
    }
    size_t first = page;
    while (page < skip.size() && !skip[page]) ++page;
    if (::mprotect(subseg.base + first * kPageSize,
                   (page - first) * kPageSize, PROT_READ) != 0) {
      throw_errno("mprotect(PROT_READ) range");
    }
  }
}

void unprotect_subsegment(Subsegment& subseg) {
  if (::mprotect(subseg.base, subseg.bytes, PROT_READ | PROT_WRITE) != 0) {
    throw_errno("mprotect(PROT_READ|PROT_WRITE)");
  }
}

size_t twin_all_pages(Subsegment& subseg, const std::vector<bool>& skip) {
  check_internal(skip.empty() || skip.size() == subseg.page_count(),
                 "skip vector size");
  size_t twinned = 0;
  for (size_t page = 0; page < subseg.page_count(); ++page) {
    if (subseg.twins[page] != nullptr || (!skip.empty() && skip[page])) {
      continue;
    }
    uint8_t* twin = map_twin_page();
    if (twin == nullptr) throw_errno("mmap twin");
    std::memcpy(twin, subseg.base + page * kPageSize, kPageSize);
    subseg.twins[page] = twin;
    ++twinned;
  }
  subseg.any_twin.store(true, std::memory_order_release);
  return twinned;
}

void drop_all_twins(Subsegment& subseg) {
  for (auto& twin : subseg.twins) {
    if (twin != nullptr) {
      release_twin_page(twin);
      twin = nullptr;
    }
  }
  subseg.any_twin.store(false, std::memory_order_release);
}

void diff_words(const uint8_t* cur, const uint8_t* twin, size_t bytes,
                uint32_t splice_gap_words, std::vector<ByteRange>& out) {
  check_internal(bytes % 4 == 0, "diff_words needs word-multiple size");
  const size_t n = bytes / 4;
  // Unaligned-safe word loads via memcpy (compilers lower this to a load).
  auto word = [](const uint8_t* p, size_t i) {
    uint32_t v;
    std::memcpy(&v, p + i * 4, 4);
    return v;
  };
  auto dword = [](const uint8_t* p, size_t i) {
    uint64_t v;
    std::memcpy(&v, p + i * 4, 8);
    return v;
  };
  size_t i = 0;
  while (i < n) {
    // SWAR fast-skip: compare doublewords (two words at a time) while the
    // region is unchanged; drop to 32-bit granularity only inside a
    // mismatching doubleword. Skips only positions the scalar loop would
    // also skip, so the output ranges are byte-identical.
    while (i + 1 < n && dword(cur, i) == dword(twin, i)) {
      i += 2;
    }
    if (i >= n) break;
    if (word(cur, i) == word(twin, i)) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t last = i;
    ++i;
    while (i < n) {
      if (word(cur, i) != word(twin, i)) {
        last = i;
        ++i;
      } else if (i - last <= splice_gap_words) {
        ++i;  // tentative gap; spliced if another change follows soon
      } else {
        break;
      }
    }
    out.push_back({static_cast<uint32_t>(start * 4),
                   static_cast<uint32_t>((last + 1) * 4)});
  }
}

}  // namespace iw::client
