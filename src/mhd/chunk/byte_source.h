// Streaming byte input abstraction.
//
// Deduplication engines never see whole files; they pull from a ByteSource
// so that multi-gigabyte synthetic corpora can be processed without
// materialization.
#pragma once

#include <cstddef>

#include "mhd/util/bytes.h"

namespace mhd {

class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Fills up to out.size() bytes; returns the number written, 0 at EOF.
  virtual std::size_t read(MutByteSpan out) = 0;
};

/// ByteSource over an in-memory buffer (non-owning).
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(ByteSpan data) : data_(data) {}

  std::size_t read(MutByteSpan out) override;

 private:
  ByteSpan data_;
  std::size_t offset_ = 0;
};

/// Drains a source into an owning buffer (test/tooling convenience).
ByteVec read_all(ByteSource& src);

}  // namespace mhd
