// Feature lanes for the chaos and lease suites. Lock caching and payload
// compression are on by default, so the base lanes already run them; ctest
// runs the suites again with one feature pinned off through the environment
// (IW_LOCK_CACHE=0, IW_COMPRESS=0). The library reads no environment: the
// suites pass every Options they build through lane_options(), and end
// every run with expect_lane_modes_held(), which fails when a pinned-off
// feature was used anyway (a construction that missed lane_options() would
// otherwise quietly repeat the base lane).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "interweave/interweave.hpp"

namespace iw {

/// True when the lane pins `var`'s feature off (the variable reads "0").
inline bool lane_pins_off(const char* var) {
  const char* v = std::getenv(var);
  return v != nullptr && std::string_view(v) == "0";
}

inline Client::Options lane_options(Client::Options opts) {
  if (lane_pins_off("IW_LOCK_CACHE")) opts.cache_read_locks = false;
  if (lane_pins_off("IW_COMPRESS")) opts.compress_payloads = false;
  return opts;
}

inline server::SegmentServer::Options lane_options(
    server::SegmentServer::Options opts) {
  if (lane_pins_off("IW_COMPRESS")) opts.compress_payloads = false;
  return opts;
}

/// Checks one server's counters against the lane: a feature pinned off
/// must leave no trace.
inline void expect_lane_modes_held(const server::SegmentServer::Stats& s) {
  if (lane_pins_off("IW_LOCK_CACHE")) {
    EXPECT_EQ(s.cached_read_grants, 0u) << "IW_LOCK_CACHE=0 lane cached locks";
  }
  if (lane_pins_off("IW_COMPRESS")) {
    EXPECT_EQ(s.updates_compressed, 0u) << "IW_COMPRESS=0 lane compressed";
    EXPECT_EQ(s.commits_compressed, 0u) << "IW_COMPRESS=0 lane compressed";
  }
}

}  // namespace iw
