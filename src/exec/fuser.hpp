// The fuser: turns a recorded stage sequence into execution groups, each of
// which the executor runs as one pass over memory (a chained single-pass
// kernel when the group scans or packs).
//
// Fusion legality (see docs/PIPELINE.md):
//   - Map/Zip stages fuse freely, before and after a scan.
//   - A group holds at most ONE scan (segmented or not): a second scan's
//     input depends on carries the first scan's lookback has not resolved.
//   - Pack ends its group: the vector length (and element positions) change.
//   - Permute is always a group of its own: it breaks producer-consumer
//     locality, so nothing fuses across it.
//   - A segmented scan fuses like a scan; its segment flags travel with the
//     group, so any stage that would change segment boundaries (a pack or a
//     permute) has already closed the group.
//
// This layer is purely structural (stage kinds in, index ranges out) so it
// lives in a .cpp and is shared by every pipeline element type.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/exec/node.hpp"

namespace scanprim::exec {

struct FuseOptions {
  bool enabled = true;  ///< false: every stage becomes its own group (the
                        ///< eager op-by-op plan, used as a bench baseline)
  std::size_t tile = 4096;  ///< elements per fused tile
};

/// A run of node indices [first, last] executed as one kernel.
/// `first == 1 && last == 0` encodes the source-only pipeline (a pure copy).
struct Group {
  std::size_t first = 0;
  std::size_t last = 0;
  bool has_scan = false;    ///< Scan or SegScan present
  std::size_t scan_at = 0;  ///< node index of the scan when has_scan
  bool has_pack = false;    ///< group ends with a pack
  bool is_permute = false;  ///< singleton permute group

  std::size_t stages() const { return last < first ? 0 : last - first + 1; }
};

/// True when `k` may never share a group with a neighbouring stage.
bool breaks_fusion(StageKind k);

/// Group the stage sequence (kinds[0] must be Source). With fusion disabled
/// every stage is its own group; the source always loads as part of the
/// first group either way.
std::vector<Group> fuse(std::span<const StageKind> kinds,
                        const FuseOptions& opts);

}  // namespace scanprim::exec
