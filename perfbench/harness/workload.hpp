// The benchmark's workloads. Each one builds live servers and Clients in
// this process, drives them through the public Client API, and checks every
// result it reads back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "counters.hpp"
#include "trace.hpp"

namespace perfbench {

struct Env {
  uint64_t seed = 1;
  /// Client threads (and connections) a multi-client workload uses.
  int clients = 2;
  /// Directory for this set-up's files (checkpoints, journals); inside the
  /// checkout the benchmark runs from.
  std::string scratch;
};

/// Peak resident memory read once the measured phase has completed a fixed
/// number of commits. The store keeps state per committed version, so a
/// reading at the end of a timed run would grow with the commit rate.
class RssProbe {
 public:
  /// Takes the reading at the `commits`-th commit recorded from now on.
  static void arm(uint64_t commits);
  /// Counts one commit; takes the reading when the armed count is reached.
  static void on_commit();
  /// The reading, or the peak so far if the armed count was not reached.
  static double peak_mb();
};

/// What one measured phase produced.
struct Phase {
  std::vector<double> commits;  ///< write critical sections, us
  std::vector<double> reads;    ///< read critical sections, us
  std::vector<double> late_us;  ///< open loop: start minus due time
  uint64_t attempted = 0;       ///< critical sections attempted
  uint64_t failed = 0;          ///< ... that threw or failed a check

  /// Records a write / read critical section that began at `start_ns`.
  void add_commit(int64_t start_ns) {
    commits.push_back(since_us(start_ns));
    RssProbe::on_commit();
  }
  void add_read(int64_t start_ns) { reads.push_back(since_us(start_ns)); }

  void merge(const Phase& other) {
    commits.insert(commits.end(), other.commits.begin(), other.commits.end());
    reads.insert(reads.end(), other.reads.begin(), other.reads.end());
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    attempted += other.attempted;
    failed += other.failed;
  }

 private:
  static double since_us(int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) / 1e3;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// "closed" or "open".
  virtual const char* loop() const = 0;
  /// Aggregate offered rate in ops/s (open loops only; 0 otherwise).
  virtual double offered_rate() const { return 0; }
  /// WAL sync policy of the primary ("off" without a journal).
  virtual const char* wal_sync() const { return "off"; }
  /// Commits after which peak_rss_mb is read (see RssProbe).
  virtual uint64_t rss_commits() const = 0;

  /// Builds servers and clients, populates the segments and warms up.
  virtual void setup() = 0;
  /// Runs the measured loop for `seconds`.
  virtual Phase run(double seconds) = 0;
  /// Snapshot of every library counter the per-layer metrics use.
  virtual Counters counters() const = 0;
  /// Checks made once after the last phase; returns the number that
  /// failed. May add per-layer measurements taken there to `extra`.
  virtual uint64_t verify(std::map<std::string, double>& extra) = 0;
};

std::unique_ptr<Workload> make_hetero_struct(const Env& env);
std::unique_ptr<Workload> make_sharded_commit(const Env& env);
std::unique_ptr<Workload> make_hot_segment(const Env& env);

}  // namespace perfbench
