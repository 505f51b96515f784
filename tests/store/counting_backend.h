// CountingBackend — a backend that counts what its reads return, so a test
// can bound what the layers above pull from storage: bytes overall, and
// get/get_range calls per namespace. It also counts the append calls it
// receives per namespace, a batch (append_all) as one, and forwards a
// batch whole. It counts the calls to its own MemoryBackend, or to any
// backend it is given. raw() reaches the backend underneath, to damage or
// remove an object behind a decorator's back. Reads are safe from several
// threads at once.
#pragma once

#include <array>
#include <atomic>

#include "mhd/store/memory_backend.h"

namespace mhd {

class CountingBackend final : public StorageBackend {
 public:
  CountingBackend() : inner_(mem_) {}
  explicit CountingBackend(StorageBackend& inner) : inner_(inner) {}

  void put(Ns ns, const std::string& name, ByteSpan data) override {
    inner_.put(ns, name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    ++appends_[static_cast<int>(ns)];
    inner_.append(ns, name, data);
  }
  void append_all(Ns ns, const std::string& name,
                  std::span<const ByteSpan> pieces,
                  std::size_t* landed = nullptr) override {
    ++appends_[static_cast<int>(ns)];
    inner_.append_all(ns, name, pieces, landed);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    return counted(ns, inner_.get(ns, name));
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    return counted(ns, inner_.get_range(ns, name, offset, length));
  }
  bool exists(Ns ns, const std::string& name) const override {
    return inner_.exists(ns, name);
  }
  bool remove(Ns ns, const std::string& name) override {
    return inner_.remove(ns, name);
  }
  std::uint64_t object_count(Ns ns) const override {
    return inner_.object_count(ns);
  }
  std::uint64_t content_bytes(Ns ns) const override {
    return inner_.content_bytes(ns);
  }
  std::vector<std::string> list(Ns ns) const override {
    return inner_.list(ns);
  }

  StorageBackend& raw() { return inner_; }
  std::uint64_t read_bytes() const { return read_bytes_; }
  void reset_read_bytes() { read_bytes_ = 0; }
  /// get and get_range calls on `ns`, found or not.
  std::uint64_t reads(Ns ns) const { return reads_[static_cast<int>(ns)]; }
  /// append and append_all calls on `ns`.
  std::uint64_t appends(Ns ns) const { return appends_[static_cast<int>(ns)]; }

 private:
  std::optional<ByteVec> counted(Ns ns, std::optional<ByteVec> bytes) const {
    ++reads_[static_cast<int>(ns)];
    if (bytes) read_bytes_ += bytes->size();
    return bytes;
  }

  MemoryBackend mem_;
  StorageBackend& inner_;
  mutable std::atomic<std::uint64_t> read_bytes_{0};
  mutable std::array<std::atomic<std::uint64_t>, static_cast<int>(Ns::kCount)>
      reads_{};
  std::array<std::atomic<std::uint64_t>, static_cast<int>(Ns::kCount)>
      appends_{};
};

}  // namespace mhd
