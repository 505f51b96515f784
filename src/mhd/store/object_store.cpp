#include "mhd/store/object_store.h"

#include <chrono>
#include <thread>

#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

/// Transient reads are retried with bounded exponential backoff; the cap
/// keeps a persistently failing device from hanging an ingest.
constexpr int kReadAttempts = 4;

template <typename Fn>
auto with_read_retry(StorageStats& stats, Fn&& fn) {
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const TransientReadError&) {
      if (attempt >= kReadAttempts) throw;
      ++stats.transient_retries;
      std::this_thread::sleep_for(std::chrono::microseconds(50) * (1 << attempt));
    }
  }
}

}  // namespace

ChunkWriter::ChunkWriter(ObjectStore* store, std::string name)
    : store_(store), name_(std::move(name)) {}

ChunkWriter::~ChunkWriter() {
  // close() touches the backend (seal record) and may throw; a destructor
  // running during unwind must not double-throw. Engines that care about
  // the error call close() explicitly.
  try {
    close();
  } catch (...) {
  }
}

std::uint64_t ChunkWriter::write_all(std::span<const ByteSpan> pieces) {
  const std::uint64_t offset = bytes_;
  std::size_t landed = 0;
  const auto count = [&] {
    for (std::size_t i = 0; i < landed; ++i) bytes_ += pieces[i].size();
  };
  try {
    store_->backend_.append_all(Ns::kDiskChunk, name_, pieces, &landed);
  } catch (...) {
    count();
    throw;
  }
  count();
  return offset;
}

void ChunkWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (bytes_ == 0) return;
  store_->backend_.seal(Ns::kDiskChunk, name_);
  store_->stats_.record(AccessKind::kChunkOut);
  store_->stats_.bytes_written += bytes_;
}

ChunkWriter ObjectStore::open_chunk(const std::string& name) {
  return ChunkWriter(this, name);
}

std::optional<ByteVec> ObjectStore::read_chunk_range(const std::string& name,
                                                     std::uint64_t offset,
                                                     std::uint64_t length) {
  auto data = with_read_retry(stats_, [&] {
    return backend_.get_range(Ns::kDiskChunk, name, offset, length);
  });
  stats_.record(AccessKind::kChunkIn);
  if (data) stats_.bytes_read += data->size();
  return data;
}

void ObjectStore::put_hook(const Digest& hook_hash, ByteSpan payload) {
  backend_.put(Ns::kHook, hook_hash.hex(), payload);
  stats_.record(AccessKind::kHookOut);
  stats_.bytes_written += payload.size();
}

std::optional<ByteVec> ObjectStore::get_hook(const Digest& hook_hash,
                                             AccessKind query_kind) {
  auto data = with_read_retry(
      stats_, [&] { return backend_.get(Ns::kHook, hook_hash.hex()); });
  if (data) {
    stats_.record(AccessKind::kHookIn);
    stats_.bytes_read += data->size();
  } else {
    stats_.record(query_kind);
  }
  return data;
}

void ObjectStore::put_manifest(const std::string& name, ByteSpan data) {
  backend_.put(Ns::kManifest, name, data);
  stats_.record(AccessKind::kManifestOut);
  stats_.bytes_written += data.size();
}

std::optional<ByteVec> ObjectStore::get_manifest(const std::string& name) {
  auto data = with_read_retry(
      stats_, [&] { return backend_.get(Ns::kManifest, name); });
  stats_.record(AccessKind::kManifestIn);
  if (data) stats_.bytes_read += data->size();
  return data;
}

void ObjectStore::put_file_manifest(const std::string& name, ByteSpan data) {
  backend_.put(Ns::kFileManifest, name, data);
  stats_.record(AccessKind::kFileManifestOut);
  stats_.bytes_written += data.size();
}

}  // namespace mhd
