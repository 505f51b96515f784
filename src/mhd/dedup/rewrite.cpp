#include "mhd/dedup/rewrite.h"

namespace mhd {

const char* rewrite_mode_name(RewriteMode mode) {
  switch (mode) {
    case RewriteMode::kNone: return "none";
    case RewriteMode::kCbr: return "cbr";
    case RewriteMode::kHar: return "har";
  }
  return "?";
}

std::optional<RewriteMode> parse_rewrite_mode(const std::string& name) {
  if (name == "none") return RewriteMode::kNone;
  if (name == "cbr" || name == "capping") return RewriteMode::kCbr;
  if (name == "har") return RewriteMode::kHar;
  return std::nullopt;
}

RewriteController::RewriteController(const RewriteConfig& config,
                                     const ContainerBackend& containers)
    : cfg_(config), containers_(containers) {
  if (cfg_.segment_bytes == 0) cfg_.segment_bytes = 4ull << 20;
}

void RewriteController::begin_file() {
  // Segments never span files: a restore is per file, so the per-segment
  // container bound must hold within each file on its own.
  segment_pos_ = 0;
  segment_containers_.clear();
}

void RewriteController::advance_segment(std::uint64_t bytes) {
  segment_pos_ += bytes;
  while (segment_pos_ >= cfg_.segment_bytes) {
    segment_pos_ -= cfg_.segment_bytes;
    segment_containers_.clear();
  }
}

void RewriteController::on_stream_bytes(std::uint64_t bytes) {
  if (cfg_.mode == RewriteMode::kCbr) advance_segment(bytes);
}

bool RewriteController::admit(const Digest& chunk_name, std::uint64_t offset,
                              std::uint64_t size) {
  const auto admitted = [&] {
    if (cfg_.mode == RewriteMode::kCbr) advance_segment(size);
    return true;
  };
  const auto rewritten = [&] {
    // The fresh copy advances the stream like any unique chunk.
    if (cfg_.mode == RewriteMode::kCbr) advance_segment(size);
    return false;
  };

  if (cfg_.mode == RewriteMode::kNone) return admitted();
  const auto container = containers_.locate(chunk_name.hex(), offset);
  if (!container) return admitted();  // unknown placement: nothing to judge
  if (*container == containers_.open_container()) {
    return admitted();  // the write head is this stream's own locality
  }

  if (cfg_.mode == RewriteMode::kHar) {
    if (sparse_.count(*container) > 0) return rewritten();
    generation_refs_[*container] += size;
    return admitted();
  }

  // CBR capping.
  if (segment_containers_.count(*container) > 0) return admitted();
  if (segment_containers_.size() <
      static_cast<std::size_t>(cfg_.cap)) {
    segment_containers_.insert(*container);
    return admitted();
  }
  return rewritten();
}

void RewriteController::end_snapshot() {
  if (cfg_.mode != RewriteMode::kHar) {
    generation_refs_.clear();
    return;
  }
  for (const auto& [container, referenced] : generation_refs_) {
    const std::uint64_t payload = containers_.container_data_bytes(container);
    if (payload == 0) continue;
    const double utilization =
        static_cast<double>(referenced) / static_cast<double>(payload);
    if (utilization < cfg_.har_utilization) sparse_.insert(container);
  }
  generation_refs_.clear();
}

}  // namespace mhd
