// CountingBackend — a MemoryBackend that counts the bytes its reads
// return, so a test can bound what the layers above pull from storage.
// raw() reaches the bytes underneath, to damage or remove an object behind
// a decorator's back. Reads are safe from several threads at once.
#pragma once

#include <atomic>

#include "mhd/store/memory_backend.h"

namespace mhd {

class CountingBackend final : public StorageBackend {
 public:
  void put(Ns ns, const std::string& name, ByteSpan data) override {
    mem_.put(ns, name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    mem_.append(ns, name, data);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    return counted(mem_.get(ns, name));
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    return counted(mem_.get_range(ns, name, offset, length));
  }
  bool exists(Ns ns, const std::string& name) const override {
    return mem_.exists(ns, name);
  }
  bool remove(Ns ns, const std::string& name) override {
    return mem_.remove(ns, name);
  }
  std::uint64_t object_count(Ns ns) const override {
    return mem_.object_count(ns);
  }
  std::uint64_t content_bytes(Ns ns) const override {
    return mem_.content_bytes(ns);
  }
  std::vector<std::string> list(Ns ns) const override {
    return mem_.list(ns);
  }

  MemoryBackend& raw() { return mem_; }
  std::uint64_t read_bytes() const { return read_bytes_; }
  void reset_read_bytes() { read_bytes_ = 0; }

 private:
  std::optional<ByteVec> counted(std::optional<ByteVec> bytes) const {
    if (bytes) read_bytes_ += bytes->size();
    return bytes;
  }

  MemoryBackend mem_;
  mutable std::atomic<std::uint64_t> read_bytes_{0};
};

}  // namespace mhd
