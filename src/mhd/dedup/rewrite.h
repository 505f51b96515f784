// Rewrite algorithms — the dedup-time half of fragmentation control.
//
// With container packing (store/container_store.h) a duplicate chunk can
// be referenced wherever dedup first placed it, but every such reference
// drags a whole old container into the restore. Rewrite algorithms trade
// a little dedup ratio for restore locality by *declining* some duplicate
// references at dedup time, so the bytes are stored fresh into the
// current container instead (selectable via --rewrite):
//
//  * kCbr — capping / container-bounded rewriting: within each segment of
//    the input stream (cbr_segment_bytes; segments never span files) at
//    most cbr_cap distinct *old* containers may be referenced. References
//    into the currently-filling container are always free. Once the cap
//    is reached, further duplicates pointing at new old containers are
//    rewritten. A restore of one segment then touches at most
//    cap + its-own-write-order containers.
//
//  * kHar — history-aware rewriting: per snapshot generation the
//    controller accumulates how many bytes each old container contributed
//    to duplicate references. At end_snapshot() containers whose
//    utilization (referenced bytes / container payload bytes) fell below
//    har_utilization are flagged *sparse*; duplicates resolving into a
//    sparse container in any later generation are rewritten. Sparse
//    containers thus drain over generations and GC can reclaim them.
//
// The controller is advisory and placement-driven: it answers "may this
// duplicate be referenced in place?" through the authoritative placement
// query ContainerBackend::locate(), so a rewrite mode needs the container
// layer (DedupEngine refuses one without it) and, for HAR, one engine
// across generations: `dedup_cli store` closes one generation per
// invocation and refuses --rewrite=har, the daemon refuses --rewrite.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "mhd/hash/digest.h"
#include "mhd/store/container_store.h"

namespace mhd {

enum class RewriteMode { kNone, kCbr, kHar };

const char* rewrite_mode_name(RewriteMode mode);
std::optional<RewriteMode> parse_rewrite_mode(const std::string& name);

struct RewriteConfig {
  RewriteMode mode = RewriteMode::kNone;
  std::uint64_t segment_bytes = 4ull << 20;  ///< CBR segment length
  std::uint32_t cap = 16;  ///< CBR: max distinct old containers per segment
  double har_utilization = 0.5;  ///< HAR sparse threshold
};

class RewriteController {
 public:
  RewriteController(const RewriteConfig& config,
                    const ContainerBackend& containers);

  /// Stream bookkeeping: segments never span files.
  void begin_file();

  /// Advances the CBR segment position for bytes that are not duplicate
  /// decisions (unique chunks, bulk-extended matches).
  void on_stream_bytes(std::uint64_t bytes);

  /// The rewrite decision for one detected duplicate whose stored copy is
  /// the chunk's logical bytes at [offset, offset+size). True = reference
  /// in place; false = store fresh (rewrite).
  bool admit(const Digest& chunk_name, std::uint64_t offset,
             std::uint64_t size);

  /// Closes a snapshot generation: HAR folds this generation's container
  /// utilization into the sparse set consulted by later generations.
  void end_snapshot();

 private:
  void advance_segment(std::uint64_t bytes);

  RewriteConfig cfg_;
  const ContainerBackend& containers_;

  // CBR state.
  std::uint64_t segment_pos_ = 0;
  std::unordered_set<std::uint64_t> segment_containers_;

  // HAR state.
  std::unordered_map<std::uint64_t, std::uint64_t> generation_refs_;
  std::unordered_set<std::uint64_t> sparse_;
};

}  // namespace mhd
