// DiskChunkManifest ("Manifest") — the per-DiskChunk metadata file.
//
// A Manifest is an ordered sequence of hash entries describing the data
// blocks inside its DiskChunk (Fig. 3 of the paper). Entries cost 36 bytes
// (20-byte SHA-1 + byte start position + byte size); MHD adds a one-byte
// Hook flag per entry (37). `chunk_count` records how many original
// small chunks an entry spans: entries with chunk_count > 1 are SHM-merged
// regions eligible for Hysteresis Hash Re-chunking, while EdgeHash and
// plain entries (chunk_count == 1) are atomic and stop match extension.
// Manifests are the only metadata files updated in place.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mhd/hash/digest.h"
#include "mhd/util/bytes.h"

namespace mhd {

struct ManifestEntry {
  Digest hash;
  std::uint64_t offset = 0;  ///< byte start within the owning DiskChunk
  std::uint32_t size = 0;    ///< byte size of the region
  std::uint32_t chunk_count = 1;  ///< original small chunks spanned
  bool is_hook = false;

  /// Paper accounting: 36 bytes per entry, +1 for the Hook flag.
  static constexpr std::uint64_t kBaseBytes = 36;
  static constexpr std::uint64_t kHookFlagBytes = 1;

  bool operator==(const ManifestEntry&) const = default;
};

class Manifest {
 public:
  Manifest() = default;
  explicit Manifest(Digest chunk_name) : chunk_name_(chunk_name) {}

  const Digest& chunk_name() const { return chunk_name_; }
  std::vector<ManifestEntry>& entries() { return entries_; }
  const std::vector<ManifestEntry>& entries() const { return entries_; }

  void add(ManifestEntry entry) { entries_.push_back(entry); }

  /// Index of the first entry with this hash, or nullopt.
  std::optional<std::size_t> find(const Digest& hash) const;

  bool dirty() const { return dirty_; }
  void set_dirty(bool dirty = true) { dirty_ = dirty; }

  /// Serialized size under the paper's accounting (with_hook_flags selects
  /// the MHD 37-byte entries vs the baseline 36-byte entries).
  std::uint64_t byte_size(bool with_hook_flags) const;

  /// Wire format: chunk_name(20) | flags(1) | count(4) | entries.
  ByteVec serialize(bool with_hook_flags) const;
  static std::optional<Manifest> deserialize(ByteSpan data);

  /// Sanity invariant: entries are contiguous, ordered, non-overlapping
  /// regions of the DiskChunk starting at `expected_start`.
  bool regions_contiguous(std::uint64_t expected_start = 0) const;

  /// True when the entries tile [0, length) exactly: the invariant of a
  /// standard manifest over its own DiskChunk of `length` bytes.
  bool tiles(std::uint64_t length) const;

 private:
  Digest chunk_name_{};
  std::vector<ManifestEntry> entries_;
  bool dirty_ = false;
};

}  // namespace mhd
