#include "counters.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void add_client(Counters& c, const iw::Client& client) {
  iw::ClientStats s = client.stats();
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  c["client.collect_ns"] += d(s.collect_ns);
  c["client.word_diff_ns"] += d(s.word_diff_ns);
  c["client.translate_ns"] += d(s.translate_ns);
  c["client.apply_ns"] += d(s.apply_ns);
  c["client.updates_applied"] += d(s.updates_applied);
  c["client.swizzles"] += d(s.swizzles_in + s.swizzles_out);
  c["wire.bytes_encoded"] += d(s.bytes_encoded);
  c["wire.bytes_decoded"] += d(s.bytes_decoded);
  c["types.plan_hits"] += d(s.plan_cache_hits);
  c["types.plan_misses"] += d(s.plan_cache_misses);
  c["types.iso_blocks"] += d(s.isomorphic_fast_path_blocks);
  c["net.bytes_sent"] += d(client.bytes_sent());
  c["net.bytes_received"] += d(client.bytes_received());
}

void add_server(Counters& c, const iw::server::SegmentServer& server,
                const std::vector<std::string>& segments) {
  iw::server::SegmentServer::Stats s = server.stats();
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  c["server.updates_sent"] += d(s.updates_sent);
  c["server.wal_bytes"] += d(s.wal_bytes_appended);
  c["server.wal_fsyncs"] += d(s.wal_fsyncs);
  c["server.checkpoints"] += d(s.checkpoints_written);
  c["server.commits_compressed"] += d(s.commits_compressed);
  c["server.commit_raw_bytes"] += d(s.commit_raw_bytes);
  c["server.commit_stored_bytes"] += d(s.commit_stored_bytes);
  c["server.update_raw_bytes"] += d(s.update_raw_bytes);
  c["server.update_wire_bytes"] += d(s.update_wire_bytes);
  for (const std::string& name : segments) {
    iw::server::StoreStats st = server.segment_stats(name);
    c["store.apply_ns"] += d(st.apply_ns);
    c["store.collect_ns"] += d(st.collect_ns);
    c["types.plan_hits"] += d(st.plan_cache_hits);
    c["types.plan_misses"] += d(st.plan_cache_misses);
    c["types.iso_blocks"] += d(st.isomorphic_fast_path_blocks);
  }
}

void add_replicator(Counters& c, const iw::server::WalReplicator& replicator) {
  c["repl.batches_sent"] +=
      static_cast<double>(replicator.stats().batches_sent);
}

Counters delta(const Counters& after, const Counters& before) {
  Counters out = after;
  for (const auto& [k, v] : before) out[k] -= v;
  return out;
}

}  // namespace perfbench
