// Modification tracking: twins, page protection, and word-granular diffing.
//
// When a client acquires a write lock (in VM-diff mode) the segment's pages
// are write-protected; the first write to each page traps into the SIGSEGV
// handler, which snapshots the page into a *twin* and re-enables writes.
// At release, diff collection compares each dirty page with its twin word
// by word, producing byte ranges of modified data, with *run splicing*:
// gaps of <= N unmodified words between modified words are treated as
// modified so the diff stays one run (paper §3.3; N = 2 by default).
//
// A software mode snapshots every page eagerly at lock acquire instead of
// using VM protection — same diffs, no signals (useful under debuggers and
// in tests, and the natural port target for platforms without mprotect).
//
// The default (kAuto) picks between the two per subsegment at each write
// lock acquire. Faults pay off only while writes are sparse: one costs
// several times an eager page copy plus its word diff. So a subsegment
// whose last diffing release found modified words on at least
// 1/kDenseWriteDivisor of its pages is twinned eagerly and left writable;
// every other subsegment is write-protected. Twins are taken after the
// acquire's update is applied, so eager twins hold exactly what a fault
// would have copied and the diffs are byte-identical. Once writes thin out
// the next release sees few dirty pages and the subsegment goes back to
// faults.
//
// Concurrency note: faults from multiple threads on distinct pages are
// safe (per-slot CAS); concurrent first-writes to the *same* page race
// exactly as the underlying application data race does.
#pragma once

#include <cstdint>
#include <vector>

#include "client/heap.hpp"

namespace iw::client {

/// kAuto twins a subsegment eagerly at acquire when its last diffing
/// release dirtied at least 1/kDenseWriteDivisor of its pages: about where
/// one write fault (signal, page copy, mprotect) per dirty page costs as
/// much as an eager copy plus word diff of every page. `ablation/eager_twins`
/// in bench/ablations.cpp measures both sides.
inline constexpr size_t kDenseWriteDivisor = 8;

/// Half-open modified byte range, relative to a subsegment base.
struct ByteRange {
  uint32_t begin;
  uint32_t end;
};

/// Word-by-word (32-bit) comparison of `bytes` bytes at cur vs twin.
/// Appends modified ranges (relative to cur) to `out`, splicing gaps of at
/// most `splice_gap_words` unmodified words. `bytes` must be a multiple of 4.
void diff_words(const uint8_t* cur, const uint8_t* twin, size_t bytes,
                uint32_t splice_gap_words, std::vector<ByteRange>& out);

/// Installs the process-wide SIGSEGV handler (called once via
/// FaultRegistry::ensure_handler_installed).
void install_sigsegv_handler();

/// Write-protects all pages of a subsegment (VM-diff mode, at wl_acquire).
void protect_subsegment(Subsegment& subseg);

/// Write-protects only the pages where `skip[i]` is false — pages fully
/// covered by blocks in per-block no-diff mode stay writable, eliminating
/// their mprotect/fault/twin costs (paper §3.3).
void protect_subsegment_except(Subsegment& subseg,
                               const std::vector<bool>& skip);

/// Restores read-write access to all pages.
void unprotect_subsegment(Subsegment& subseg);

/// Eagerly snapshots every page (software mode), or with a non-empty
/// `skip` only the pages where `skip[i]` is false (kAuto's dense
/// subsegments). Pages that already have twins keep them. Returns the
/// number of twins made.
size_t twin_all_pages(Subsegment& subseg, const std::vector<bool>& skip = {});

/// Releases all twins and clears the pagemap.
void drop_all_twins(Subsegment& subseg);

/// Process-wide count of write faults taken by the handler (stats).
uint64_t fault_count() noexcept;

}  // namespace iw::client
