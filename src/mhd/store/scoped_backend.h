// ScopedBackend — one name prefix's view of a shared backend.
//
// Every object name is prefixed with `prefix` on the way down and
// stripped on the way up, in every namespace. The daemon scopes each
// tenant this way (server::TenantView, prefix `<tenant>.`). References
// inside objects are bare names that resolve within the referencing
// object's own scope, so fsck and gc walk a repository one scope at a
// time (list_scopes) through this view, with the same code path as a
// single-tenant repository (the empty prefix is the root scope).
//
// '.' separates a scope from a bare name and appears in neither: tenant
// ids exclude it (server::validate_tenant) and bare object names are hex
// digests, "warm", "aux-…", "sampled-meta". So list() drops any stripped
// name that still holds a '.': the empty scope does not see other scopes'
// objects.
//
// list()/object_count()/content_bytes() filter the full physical listing
// (content_bytes by reading each object) — stats and fsck paths, not hot
// paths.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mhd/store/backend.h"

namespace mhd {

/// The scopes present in `backend`: the root scope "" first, then every
/// `<prefix>.` that begins an object name in any namespace, sorted.
/// Containers have no prefix: they sit below the scopes, and every scope's
/// chunks may share them.
inline std::vector<std::string> list_scopes(const StorageBackend& backend) {
  std::set<std::string> prefixes;
  for (int ns = 0; ns < static_cast<int>(Ns::kCount); ++ns) {
    for (const auto& name : backend.list(static_cast<Ns>(ns))) {
      const auto dot = name.find('.');
      if (dot != std::string::npos) prefixes.insert(name.substr(0, dot + 1));
    }
  }
  std::vector<std::string> scopes{""};
  scopes.insert(scopes.end(), prefixes.begin(), prefixes.end());
  return scopes;
}

class ScopedBackend : public StorageBackend {
 public:
  ScopedBackend(StorageBackend& inner, std::string prefix)
      : inner_(inner), prefix_(std::move(prefix)) {}

  void put(Ns ns, const std::string& name, ByteSpan data) override {
    inner_.put(ns, prefix_ + name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    inner_.append(ns, prefix_ + name, data);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    return inner_.get(ns, prefix_ + name);
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    return inner_.get_range(ns, prefix_ + name, offset, length);
  }
  bool exists(Ns ns, const std::string& name) const override {
    return inner_.exists(ns, prefix_ + name);
  }
  bool remove(Ns ns, const std::string& name) override {
    return inner_.remove(ns, prefix_ + name);
  }
  void seal(Ns ns, const std::string& name) override {
    inner_.seal(ns, prefix_ + name);
  }
  std::uint64_t object_count(Ns ns) const override {
    return list(ns).size();
  }
  std::uint64_t content_bytes(Ns ns) const override {
    std::uint64_t total = 0;
    for (const auto& name : list(ns)) {
      if (const auto obj = inner_.get(ns, prefix_ + name)) total += obj->size();
    }
    return total;
  }
  std::vector<std::string> list(Ns ns) const override {
    std::vector<std::string> mine;
    for (auto& name : inner_.list(ns)) {
      if (name.rfind(prefix_, 0) != 0) continue;
      std::string base = name.substr(prefix_.size());
      if (base.find('.') != std::string::npos) continue;
      mine.push_back(std::move(base));
    }
    return mine;
  }

 private:
  StorageBackend& inner_;
  std::string prefix_;
};

}  // namespace mhd
