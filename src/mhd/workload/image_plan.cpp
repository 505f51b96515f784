#include "mhd/workload/image_plan.h"

#include <algorithm>

namespace mhd {

std::size_t ImageSource::read(MutByteSpan out) {
  std::size_t produced = 0;
  while (produced < out.size() && extent_index_ < plan_.extents().size()) {
    const Extent& e = plan_.extents()[extent_index_];
    const std::uint64_t remaining = e.length - extent_pos_;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, out.size() - produced));
    blocks_.fill(e.content_id, e.offset + extent_pos_,
                 {out.data() + produced, take});
    produced += take;
    extent_pos_ += take;
    if (extent_pos_ == e.length) {
      ++extent_index_;
      extent_pos_ = 0;
    }
  }
  return produced;
}

}  // namespace mhd
