// Tunables of the log-structured storage substrate. Defaults follow the
// paper (8 MB segments, dynamically created fixed-size groups, Q active
// groups per streamlet).
#pragma once

#include <cstddef>
#include <cstdint>

namespace kera {

struct StorageConfig {
  /// Fixed segment size; same structure in memory and on disk so data
  /// moves between the two without reformatting.
  size_t segment_size = 8u << 20;

  /// Number of segments logically assembled into one group. Groups are the
  /// unit of consumer load-balancing and of trimming.
  uint32_t segments_per_group = 4;

  /// Q: active groups per streamlet; producers append to the active group
  /// at entry (producer_id mod Q), enabling parallel appends.
  uint32_t active_groups_per_streamlet = 1;
};

}  // namespace kera
