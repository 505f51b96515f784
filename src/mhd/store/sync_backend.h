// SyncBackend — mutual exclusion for a shared storage stack.
//
// The layers below were written for single-owner use: MemoryBackend's
// maps and FaultInjectingBackend's operation counters are unguarded, and
// a read of an object that a FileBackend or FramedBackend append is still
// extending can see a torn stream. (FileBackend keeps no state of its
// own; FramedBackend guards its size accounting and record tables.) The
// multi-tenant daemon runs many sessions over one stack, so it interposes
// this decorator at the top of the *shared* portion: every call forwards
// to the inner backend under one mutex, turning the stack below into a
// linearizable object store. Chunking and hashing happen above this
// layer, outside the lock. Everything below it runs under the lock: in
// the daemon that includes FramedBackend, so framing on writes and CRC
// verification on reads serialize with the store operations.
//
// Layering in the daemon (outermost first):
//
//   TenantView (per session) → SyncBackend → [Container] → [Framed] →
//   [Fault] → File/Memory
//
// ContainerBackend carries its own internal mutex; nesting it under
// SyncBackend is benign (consistent lock order, no call cycles back up).
#pragma once

#include <mutex>

#include "mhd/store/backend.h"

namespace mhd {

class SyncBackend final : public StorageBackend {
 public:
  explicit SyncBackend(StorageBackend& inner) : inner_(inner) {}

  void put(Ns ns, const std::string& name, ByteSpan data) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.put(ns, name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.append(ns, name, data);
  }
  void append_all(Ns ns, const std::string& name,
                  std::span<const ByteSpan> pieces,
                  std::size_t* landed = nullptr) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.append_all(ns, name, pieces, landed);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.get(ns, name);
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.get_range(ns, name, offset, length);
  }
  bool exists(Ns ns, const std::string& name) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.exists(ns, name);
  }
  bool remove(Ns ns, const std::string& name) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.remove(ns, name);
  }
  void seal(Ns ns, const std::string& name) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.seal(ns, name);
  }
  std::uint64_t object_count(Ns ns) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.object_count(ns);
  }
  std::uint64_t content_bytes(Ns ns) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.content_bytes(ns);
  }
  std::vector<std::string> list(Ns ns) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.list(ns);
  }
  std::vector<LayoutDamage> layout_damage() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.layout_damage();
  }

 private:
  StorageBackend& inner_;
  mutable std::mutex mu_;
};

}  // namespace mhd
