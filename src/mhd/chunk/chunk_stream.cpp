#include "mhd/chunk/chunk_stream.h"

#include "mhd/hash/sha1.h"

namespace mhd {

ChunkStream::ChunkStream(ByteSource& source, Chunker& chunker,
                         std::size_t io_buffer_size)
    : source_(source), chunker_(chunker), io_buf_(io_buffer_size) {}

std::size_t ChunkStream::refill() {
  buf_pos_ = 0;
  buf_len_ = source_.read({io_buf_.data(), io_buf_.size()});
  if (buf_len_ == 0) eof_ = true;
  return buf_len_;
}

bool ChunkStream::next(ByteVec& chunk) {
  chunk.clear();

  // Re-feed carry-over bytes (they are logically unread input).
  if (!carry_.empty()) {
    ByteVec pending;
    pending.swap(carry_);
    std::size_t off = 0;
    while (off < pending.size()) {
      const auto r = chunker_.scan(
          {pending.data() + off, pending.size() - off});
      append(chunk, {pending.data() + off, r.consumed});
      off += r.consumed;
      if (r.cut) {
        const std::size_t back = chunker_.cut_back();
        if (back > 0) {
          carry_.assign(chunk.end() - static_cast<std::ptrdiff_t>(back),
                        chunk.end());
          chunk.resize(chunk.size() - back);
        }
        // Any unscanned pending bytes must stay queued for the next chunk.
        carry_.insert(carry_.end(), pending.begin() + static_cast<std::ptrdiff_t>(off),
                      pending.end());
        bytes_emitted_ += chunk.size();
        return true;
      }
    }
  }

  for (;;) {
    if (buf_pos_ == buf_len_) {
      if (eof_ || refill() == 0) {
        bytes_emitted_ += chunk.size();
        return !chunk.empty();
      }
    }
    const auto r =
        chunker_.scan({io_buf_.data() + buf_pos_, buf_len_ - buf_pos_});
    append(chunk, {io_buf_.data() + buf_pos_, r.consumed});
    buf_pos_ += r.consumed;
    if (r.cut) {
      const std::size_t back = chunker_.cut_back();
      if (back > 0) {
        carry_.assign(chunk.end() - static_cast<std::ptrdiff_t>(back),
                      chunk.end());
        chunk.resize(chunk.size() - back);
      }
      bytes_emitted_ += chunk.size();
      return true;
    }
  }
}

HashedChunkStream::HashedChunkStream(ByteSource& source,
                                     std::unique_ptr<Chunker> chunker)
    : chunker_(std::move(chunker)), stream_(source, *chunker_) {}

bool HashedChunkStream::next(ByteVec& bytes, Digest& hash) {
  if (!stream_.next(bytes)) return false;
  hash = Sha1::digest_of(bytes);
  return true;
}

}  // namespace mhd
