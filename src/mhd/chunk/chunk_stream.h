// ChunkStream — pulls whole chunks (bytes + cut metadata) out of a
// ByteSource through any Chunker, handling I/O buffering and TTTD
// carry-over. HashedChunkStream adds each chunk's SHA-1 and is the front
// end of every deduplication engine.
#pragma once

#include <memory>

#include "mhd/chunk/byte_source.h"
#include "mhd/chunk/chunker.h"
#include "mhd/hash/digest.h"

namespace mhd {

class ChunkStream {
 public:
  ChunkStream(ByteSource& source, Chunker& chunker,
              std::size_t io_buffer_size = 256 * 1024);

  /// Fills `chunk` with the next chunk's bytes. Returns false at end of
  /// stream (chunk left empty). The final chunk may end without a content
  /// cut (end of input).
  bool next(ByteVec& chunk);

  /// Total bytes emitted so far.
  std::uint64_t bytes_emitted() const { return bytes_emitted_; }

 private:
  std::size_t refill();

  ByteSource& source_;
  Chunker& chunker_;
  ByteVec io_buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  ByteVec carry_;  ///< bytes rolled back past a TTTD backup cut
  bool eof_ = false;
  std::uint64_t bytes_emitted_ = 0;
};

/// Whole chunks plus their SHA-1 fingerprints, in input order, chunked and
/// hashed on the caller's thread. Owns its chunker (the chunker's state is
/// private to the stream).
class HashedChunkStream {
 public:
  HashedChunkStream(ByteSource& source, std::unique_ptr<Chunker> chunker);

  /// Fills `bytes` and `hash` with the next chunk. Returns false at end of
  /// stream. A ByteSource failure propagates as the original exception.
  bool next(ByteVec& bytes, Digest& hash);

 private:
  std::unique_ptr<Chunker> chunker_;
  ChunkStream stream_;
};

}  // namespace mhd
