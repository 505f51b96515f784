// RestoreReader — the one restore path.
//
// A ByteSource over a FileManifest: it resolves one recipe entry at a time
// and streams the bytes out through the caller's buffer, so a restore of a
// multi-gigabyte disk image runs in O(buffer) memory. It exposes the total
// length up front (for progress reporting), retries transient read errors
// in place, and fails with a poisoned state rather than returning wrong
// bytes if the repository is damaged mid-stream. DedupEngine::reconstruct()
// is this reader drained into one file-sized buffer.
#pragma once

#include <optional>
#include <string>

#include "mhd/chunk/byte_source.h"
#include "mhd/format/file_manifest.h"
#include "mhd/store/backend.h"

namespace mhd {

class RestoreReader final : public ByteSource {
 public:
  /// Opens a restore stream for `file_name`; nullopt if the file is not in
  /// the repository (no FileManifest).
  static std::optional<RestoreReader> open(const StorageBackend& backend,
                                           const std::string& file_name);

  /// Total bytes this restore will produce.
  std::uint64_t total_length() const { return total_; }

  /// Bytes produced so far (progress).
  std::uint64_t produced() const { return produced_; }

  /// False once an unresolvable recipe entry has been hit; read() returns
  /// 0 from then on (a short restore, never corrupt bytes).
  bool ok() const { return ok_; }

  /// TransientReadErrors absorbed by the bounded in-stream retry. A
  /// restore that completed with retries is still byte-exact; only an
  /// exhausted retry budget surfaces as a TransientReadError to the
  /// caller (who may restart the whole restore).
  std::uint64_t transient_retries() const { return transient_retries_; }

  std::size_t read(MutByteSpan out) override;

 private:
  RestoreReader(const StorageBackend& backend, FileManifest fm);

  const StorageBackend* backend_;
  FileManifest fm_;
  std::size_t entry_index_ = 0;
  std::uint64_t entry_pos_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t produced_ = 0;
  std::uint64_t transient_retries_ = 0;
  bool ok_ = true;
};

}  // namespace mhd
