// ImagePlan — the extent-list description of one disk-image snapshot.
//
// A snapshot is a sequence of extents, each referencing a window of a
// logical content block (BlockSource). Snapshots of the same machine share
// most extents (duplication), and day-over-day mutation edits the extent
// list: replacing extents creates fresh unique data, inserting/deleting
// extents shifts all downstream bytes (the boundary-shifting behaviour
// content-defined chunking must absorb).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mhd/chunk/byte_source.h"
#include "mhd/workload/block_source.h"

namespace mhd {

struct Extent {
  std::uint64_t content_id = 0;
  std::uint64_t offset = 0;  ///< starting offset within the content block
  std::uint64_t length = 0;

  bool operator==(const Extent&) const = default;
};

class ImagePlan {
 public:
  ImagePlan() = default;

  void add(Extent e) {
    total_bytes_ += e.length;
    extents_.push_back(e);
  }

  const std::vector<Extent>& extents() const { return extents_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::vector<Extent> extents_;
  std::uint64_t total_bytes_ = 0;
};

/// Streams the bytes of an ImagePlan through a BlockSource.
class ImageSource final : public ByteSource {
 public:
  ImageSource(const ImagePlan& plan, const BlockSource& blocks)
      : plan_(plan), blocks_(blocks) {}

  std::size_t read(MutByteSpan out) override;

 private:
  const ImagePlan& plan_;
  const BlockSource& blocks_;
  std::size_t extent_index_ = 0;
  std::uint64_t extent_pos_ = 0;
};

}  // namespace mhd
