// Reusable per-call scratch for the batch classification fast paths.
//
// The batch contract is zero heap traffic per PACKET: every engine's
// classify_batch allocates (at most) once per CALL by hoisting its
// working state into a ScratchArena that lives on the caller's stack
// frame, then recycles it across the whole span. The arena is plain
// data — engines use whichever members they need and leave the rest
// empty — so one definition serves StrideBV (entry vector + stage row
// pointers), the TCAM (entry line reuse), and the runtime's flow-cache
// miss compaction.
//
// Arenas are not thread-safe and not meant to outlive a call; the
// convention "one arena per classify_batch invocation" keeps the batch
// path re-entrant (safe under the sharded runtime's lanes, where one
// engine classifies several packet slices concurrently on different
// arenas).
#pragma once

#include <cstdint>
#include <vector>

#include "net/header.h"
#include "util/bitvector.h"

namespace rfipc::engines {

struct ScratchArena {
  /// Partial-match entry vector, reused across packets.
  util::BitVector entry_bv;
  /// Per-stage stage-memory row pointers for the packet being ANDed.
  std::vector<const std::uint64_t*> rows;
  /// Row pointers for the NEXT packet (software pipelining: computed a
  /// packet ahead so the rows can be prefetched while the current
  /// packet's AND chain runs).
  std::vector<const std::uint64_t*> rows_ahead;
  /// Compacted headers (runtime flow-cache miss path).
  std::vector<net::HeaderBits> headers;
  /// Indices back into the caller's span for the compacted headers.
  std::vector<std::size_t> indices;
};

}  // namespace rfipc::engines
