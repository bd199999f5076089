// Library counter snapshots and the small statistics the harness reports.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "interweave/interweave.hpp"
#include "server/replication.hpp"

namespace perfbench {

/// Named counter values; per-layer metrics are differences of two
/// snapshots taken around a phase.
using Counters = std::map<std::string, double>;

/// Nearest-rank percentile (0 for an empty sample).
double percentile(std::vector<double> v, double q);

/// Adds the counters of Client::stats() and the client's channel bytes.
void add_client(Counters& c, const iw::Client& client);
/// Adds SegmentServer::stats() and segment_stats() of `segments`.
void add_server(Counters& c, const iw::server::SegmentServer& server,
                const std::vector<std::string>& segments);
void add_replicator(Counters& c, const iw::server::WalReplicator& replicator);

/// after - before, key by key.
Counters delta(const Counters& after, const Counters& before);

}  // namespace perfbench
