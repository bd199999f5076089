// iwbench: runs one workload and prints its metrics. run.py builds it and
// is the command to use:
//
//   iwbench --workload <hetero_struct|sharded_commit|hot_segment>
//           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//           [--git-sha <sha>]
//
// The process confines itself to one CPU before it starts a thread (see
// pin_to_one_cpu). --trace 0 measures for --seconds and reports the
// end-to-end metrics.
// --trace 1 runs --seconds/2 untraced, then --seconds/2 with spans recorded
// at the client, channel and server seams, and reports the per-layer
// metrics plus the tracing overhead. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

std::atomic<uint64_t> rss_commits_left{0};
std::atomic<long> rss_reading_kb{0};

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

void RssProbe::arm(uint64_t commits) {
  rss_reading_kb = 0;
  rss_commits_left = commits;
}

void RssProbe::on_commit() {
  uint64_t left = rss_commits_left.load(std::memory_order_relaxed);
  while (left > 0 && !rss_commits_left.compare_exchange_weak(left, left - 1)) {
  }
  if (left == 1) rss_reading_kb = max_rss_kb();
}

double RssProbe::peak_mb() {
  long kb = rss_reading_kb.load();
  return static_cast<double>(kb > 0 ? kb : max_rss_kb()) / 1024.0;
}

namespace {

/// Set-ups per run; setup_s is their median. One set-up takes between a
/// hundredth and a tenth of a second, so a single one is at the mercy of a
/// scheduler hiccup.
constexpr int kSetups = 21;

struct Metric {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists; run.py --smoke checks both agree.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"commit_p50_us", "us"},
    {"commit_p90_us", "us"},   {"read_p50_us", "us"},
    {"read_p90_us", "us"},     {"ops_per_s", "1/s"},
    {"wire_bytes_per_op", "B"}, {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"client.commit_us.p99", "us"},
    {"client.read_us.p99", "us"},
    {"client.self_us.p50", "us"},
    {"client.collect_us_per_commit", "us"},
    {"client.word_diff_us_per_commit", "us"},
    {"client.apply_us_per_update", "us"},
    {"client.swizzles_per_op", "count"},
    {"client.write_lock_us.p50", "us"},
    {"client.write_lock_us.p99", "us"},
    {"client.write_unlock_us.p50", "us"},
    {"client.write_unlock_us.p99", "us"},
    {"client.read_lock_us.p50", "us"},
    {"client.read_lock_us.p99", "us"},
    {"types.plan_cache_hit_ratio", "ratio"},
    {"types.isomorphic_block_ratio", "ratio"},
    {"wire.translate_us_per_op", "us"},
    {"wire.bytes_encoded_per_op", "B"},
    {"wire.bytes_decoded_per_op", "B"},
    {"wire.payload.compressed_commit_ratio", "ratio"},
    {"wire.payload.commit_stored_over_raw", "ratio"},
    {"wire.payload.update_wire_over_raw", "ratio"},
    {"net.rpcs_per_op", "count"},
    {"net.bytes_sent_per_op", "B"},
    {"net.bytes_received_per_op", "B"},
    {"net.call_us.acquire_write.p50", "us"},
    {"net.call_us.acquire_write.p99", "us"},
    {"net.call_us.release_write.p50", "us"},
    {"net.call_us.release_write.p99", "us"},
    {"net.call_us.acquire_read.p50", "us"},
    {"net.call_us.acquire_read.p99", "us"},
    {"net.call_us.release_read.p50", "us"},
    {"net.call_us.release_read.p99", "us"},
    {"net.self_us.p50", "us"},
    {"server.handle_us.acquire_write.p50", "us"},
    {"server.handle_us.acquire_write.p99", "us"},
    {"server.handle_us.release_write.p50", "us"},
    {"server.handle_us.release_write.p99", "us"},
    {"server.busy_share", "ratio"},
    {"server.checkpoints_per_1k_commits", "count"},
    {"server.recover_ms", "ms"},
    {"server.store.apply_us_per_commit", "us"},
    {"server.store.collect_us_per_update", "us"},
    {"server.wal.bytes_per_commit", "B"},
    {"server.wal.fsyncs_per_commit", "count"},
    {"server.repl.append_us.p50", "us"},
    {"server.repl.append_us.p99", "us"},
    {"server.repl.batches_per_commit", "count"},
    {"process.cpu_busy_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "iwbench: " << why << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--scratch") a.scratch = v;
      else if (flag == "--git-sha") a.git_sha = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty() || a.scratch.empty()) usage("--workload and --scratch are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Confines the calling thread, and every thread it starts later, to the
/// last CPU it may run on (the first tends to take more interrupts).
/// Hand-offs between client, transport, server and replica threads then
/// switch context on that CPU instead of waking an idle one; on a virtual
/// machine such a wake-up waits for the host to run that virtual CPU, so
/// its delay follows the load of other tenants. Returns the CPU, or -1 if
/// the affinity could not be set.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      std::ostringstream o;
      o << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return o.str();
    }
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::unique_ptr<Workload> make(const std::string& name, const Env& env) {
  if (name == "hetero_struct") return make_hetero_struct(env);
  if (name == "sharded_commit") return make_sharded_commit(env);
  if (name == "hot_segment") return make_hot_segment(env);
  usage("unknown workload " + name);
}

/// One measured phase plus the counters and process costs around it.
struct Measured {
  Phase phase;
  Counters counters;  ///< difference over the phase
  double wall_s = 0;
  double cpu_s = 0;
  /// Peak resident memory after the workload's rss_commits() commits of
  /// the phase (or at its end, if it made fewer), so before the checks and
  /// the recovery that follow it.
  double peak_rss_mb = 0;

  uint64_t ops() const { return phase.commits.size() + phase.reads.size(); }
  double mean_us() const {
    double sum = 0;
    for (double us : phase.commits) sum += us;
    for (double us : phase.reads) sum += us;
    return ratio(sum, static_cast<double>(ops()));
  }
};

Measured measure(Workload& w, double seconds) {
  Measured m;
  Counters before = w.counters();
  double cpu0 = cpu_seconds();
  RssProbe::arm(w.rss_commits());
  int64_t t0 = now_ns();
  m.phase = w.run(seconds);
  m.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  m.cpu_s = cpu_seconds() - cpu0;
  m.peak_rss_mb = RssProbe::peak_mb();
  m.counters = delta(w.counters(), before);
  return m;
}

std::map<std::string, double> end_to_end(const Measured& m, double setup_s) {
  const Counters& c = m.counters;
  auto ops = static_cast<double>(m.ops());
  std::map<std::string, double> out;
  out["setup_s"] = setup_s;
  out["commit_p50_us"] = percentile(m.phase.commits, 0.50);
  out["commit_p90_us"] = percentile(m.phase.commits, 0.90);
  out["read_p50_us"] = percentile(m.phase.reads, 0.50);
  out["read_p90_us"] = percentile(m.phase.reads, 0.90);
  out["ops_per_s"] = ratio(ops, m.wall_s);
  out["cpu_us_per_op"] = ratio(m.cpu_s * 1e6, ops);
  out["wire_bytes_per_op"] = ratio(c.at("net.bytes_sent") + c.at("net.bytes_received"), ops);
  out["peak_rss_mb"] = m.peak_rss_mb;
  return out;
}

std::map<std::string, double> per_layer(
    const Measured& untraced, const Measured& traced,
    const std::vector<Span>& spans, const std::map<std::string, double>& extra,
    int nproc) {
  const Counters& c = traced.counters;
  auto get = [&c](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  auto ops = static_cast<double>(traced.ops());
  auto commits = static_cast<double>(traced.phase.commits.size());
  std::map<std::string, double> out =
      analyze_spans(spans, Tracer::instance().sessions());
  double capacity_ns = traced.wall_s * 1e9 * nproc;

  out["client.commit_us.p99"] = percentile(untraced.phase.commits, 0.99);
  out["client.read_us.p99"] = percentile(untraced.phase.reads, 0.99);
  out["client.collect_us_per_commit"] = ratio(get("client.collect_ns") / 1e3, commits);
  out["client.word_diff_us_per_commit"] = ratio(get("client.word_diff_ns") / 1e3, commits);
  out["client.apply_us_per_update"] =
      ratio(get("client.apply_ns") / 1e3, get("client.updates_applied"));
  out["client.swizzles_per_op"] = ratio(get("client.swizzles"), ops);
  out["types.plan_cache_hit_ratio"] =
      ratio(get("types.plan_hits"), get("types.plan_hits") + get("types.plan_misses"));
  out["types.isomorphic_block_ratio"] =
      ratio(get("types.iso_blocks"), get("types.plan_hits") + get("types.plan_misses"));
  out["wire.translate_us_per_op"] = ratio(get("client.translate_ns") / 1e3, ops);
  out["wire.bytes_encoded_per_op"] = ratio(get("wire.bytes_encoded"), ops);
  out["wire.bytes_decoded_per_op"] = ratio(get("wire.bytes_decoded"), ops);
  out["wire.payload.compressed_commit_ratio"] =
      ratio(get("server.commits_compressed"), commits);
  out["wire.payload.commit_stored_over_raw"] =
      ratio(get("server.commit_stored_bytes"), get("server.commit_raw_bytes"));
  out["wire.payload.update_wire_over_raw"] =
      ratio(get("server.update_wire_bytes"), get("server.update_raw_bytes"));
  out["net.rpcs_per_op"] = ratio(out.at("trace.net_calls"), ops);
  out["net.bytes_sent_per_op"] = ratio(get("net.bytes_sent"), ops);
  out["net.bytes_received_per_op"] = ratio(get("net.bytes_received"), ops);
  out["server.busy_share"] = ratio(out.at("trace.server_busy_ns"), capacity_ns);
  out["server.checkpoints_per_1k_commits"] =
      ratio(1000 * get("server.checkpoints"), commits);
  out["server.recover_ms"] = extra.count("server.recover_ms") ? extra.at("server.recover_ms") : 0;
  out["server.store.apply_us_per_commit"] = ratio(get("store.apply_ns") / 1e3, commits);
  out["server.store.collect_us_per_update"] =
      ratio(get("store.collect_ns") / 1e3, get("server.updates_sent"));
  out["server.wal.bytes_per_commit"] = ratio(get("server.wal_bytes"), commits);
  out["server.wal.fsyncs_per_commit"] = ratio(get("server.wal_fsyncs"), commits);
  out["server.repl.batches_per_commit"] = ratio(get("repl.batches_sent"), commits);
  out["process.cpu_busy_share"] = ratio(traced.cpu_s * 1e9, capacity_ns);
  out["trace.overhead_ratio"] = ratio(traced.mean_us(), untraced.mean_us()) - 1;
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int run(const Args& args) {
  const int host_nproc = cpu_count();
  const int cpu = pin_to_one_cpu();
  const int nproc = cpu_count();
  Env env;
  env.seed = args.seed;

  // Several set-ups, each timed from construction to the end of its
  // warm-up; all but the last are torn down again, untimed.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    env.scratch = args.scratch + "/setup" + std::to_string(i);
    std::filesystem::remove_all(env.scratch);
    std::filesystem::create_directories(env.scratch);
    int64_t t0 = now_ns();
    w = make(args.workload, env);
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i + 1 < kSetups) {
      w.reset();
      std::filesystem::remove_all(env.scratch);
    }
  }

  std::cout << "{\"host\": {\"nproc\": " << host_nproc << ", \"cpu\": " << cpu
            << ", \"compiler\": " << json_string(IWB_CXX_COMPILER)
            << ", \"build_type\": " << json_string(IWB_BUILD_TYPE)
            << ", \"git_sha\": " << json_string(args.git_sha)
            << ", \"seed\": " << args.seed
            << ", \"wal_sync\": " << json_string(w->wal_sync())
            << ", \"tmp_fs\": " << json_string(fs_type(args.scratch))
            << "}, \"workload\": {\"name\": " << json_string(args.workload)
            << ", \"loop\": " << json_string(w->loop())
            << ", \"clients\": " << env.clients
            << ", \"offered_rate\": " << json_number(w->offered_rate())
            << ", \"seconds\": " << json_number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}}\n";

  std::vector<Measured> phases;
  std::vector<Span> spans;
  if (!args.trace) {
    phases.push_back(measure(*w, args.seconds));
  } else {
    phases.push_back(measure(*w, args.seconds / 2));
    Tracer& tracer = Tracer::instance();
    tracer.set_enabled(true);
    phases.push_back(measure(*w, args.seconds / 2));
    tracer.set_enabled(false);
    spans = tracer.drain();
  }
  std::map<std::string, double> extra;
  uint64_t attempted = 0;
  uint64_t failed = w->verify(extra);
  for (const Measured& m : phases) {
    attempted += m.phase.attempted;
    failed += m.phase.failed;
  }
  std::map<std::string, double> values =
      args.trace ? per_layer(phases[0], phases[1], spans, extra, nproc)
                 : end_to_end(phases[0], percentile(setup_s, 0.5));
  w.reset();
  std::filesystem::remove_all(args.scratch);

  std::span<const Metric> table = args.trace ? std::span<const Metric>(kPerLayer)
                                               : std::span<const Metric>(kEndToEnd);
  double failed_ratio = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::cout << "failed_op_ratio " << json_number(failed_ratio) << " ratio\n";
  if (!phases[0].phase.late_us.empty()) {
    std::cout << "loadgen.late_p99_us "
              << json_number(percentile(phases[0].phase.late_us, 0.99)) << " us\n";
  }
  std::ostringstream metrics;
  const char* sep = "";
  for (const Metric& m : table) {
    auto it = values.find(m.name);
    if (it == values.end()) usage(std::string("internal: no value for ") + m.name);
    std::cout << m.name << " " << json_number(it->second) << " " << m.unit << "\n";
    metrics << sep << json_string(m.name) << ": {\"value\": "
            << json_number(it->second) << ", \"unit\": " << json_string(m.unit) << "}";
    sep = ", ";
  }
  bool correct = failed == 0 && attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(attempted, 1)
            << ", \"failed\": " << failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  for (const char* var : {"IW_COMPRESS", "IW_LOCK_CACHE"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "iwbench: " << var
                << " is set; it overrides Client/Server Options and would "
                   "change what is measured. Unset it.\n";
      return 2;
    }
  }
  perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "iwbench: " << e.what() << "\n";
    return 1;
  }
}
