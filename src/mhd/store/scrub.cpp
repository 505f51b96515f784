#include "mhd/store/scrub.h"

#include <array>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "mhd/format/file_manifest.h"
#include "mhd/format/manifest.h"
#include "mhd/hash/digest.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/container_store.h"
#include "mhd/store/framing.h"
#include "mhd/store/scoped_backend.h"
#include "mhd/util/hex.h"

namespace mhd {

namespace {

namespace fs = std::filesystem;

/// Removes the object from its namespace; with a quarantine directory the
/// bytes are preserved under <quarantine_dir>/<namespace>/ first. Removal
/// goes through the backend so its accounting stays exact.
void quarantine(StorageBackend& raw, const fs::path& quarantine_dir, Ns ns,
                const std::string& name, const ByteVec& bytes) {
  if (!quarantine_dir.empty()) {
    const fs::path dir = quarantine_dir / ns_name(ns);
    fs::create_directories(dir);
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  raw.remove(ns, name);
}

std::optional<std::string> hook_target(const ByteVec& payload) {
  if (payload.size() != Digest::kSize) return std::nullopt;
  return hex_encode({payload.data(), payload.size()});
}

/// Namespace scope of a physical object name. Multi-tenant repositories
/// (written through the server's TenantView) prefix every object with
/// `<tenant>.`; '.' is reserved as the separator and never appears in
/// bare object names (hex digests, "meta", "shard-…"). References INSIDE
/// objects are always bare names scoped to the referencing object's own
/// tenant, so every cross-reference check joins scope + bare name.
std::string scope_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? std::string{} : name.substr(0, dot + 1);
}

}  // namespace

const char* fsck_kind_name(FsckIssue::Kind kind) {
  switch (kind) {
    case FsckIssue::Kind::kTornTail: return "torn-tail";
    case FsckIssue::Kind::kCorrupt: return "corrupt";
    case FsckIssue::Kind::kDanglingHook: return "dangling-hook";
    case FsckIssue::Kind::kBrokenRef: return "broken-ref";
    case FsckIssue::Kind::kOrphan: return "orphan";
    case FsckIssue::Kind::kIndexInconsistent: return "index-inconsistent";
  }
  return "?";
}

const char* fsck_action_name(FsckIssue::Action action) {
  switch (action) {
    case FsckIssue::Action::kNone: return "reported";
    case FsckIssue::Action::kTruncatedSealed: return "truncated+sealed";
    case FsckIssue::Action::kQuarantined: return "quarantined";
    case FsckIssue::Action::kRemoved: return "removed";
    case FsckIssue::Action::kRebuilt: return "rebuilt";
  }
  return "?";
}

std::string FsckReport::to_string() const {
  std::ostringstream out;
  out << "fsck: " << objects << " objects, " << clean_objects << " clean";
  if (torn != 0) out << ", " << torn << " torn";
  if (corrupt != 0) out << ", " << corrupt << " corrupt";
  if (dangling_hooks != 0) out << ", " << dangling_hooks << " dangling hooks";
  if (broken_refs != 0) out << ", " << broken_refs << " broken refs";
  if (index_issues != 0) out << ", " << index_issues << " index issues";
  if (orphans != 0) out << ", " << orphans << " orphans";
  if (repaired != 0) {
    out << "; repaired " << repaired << " (" << salvaged_bytes
        << " bytes salvaged)";
  }
  out << '\n';
  for (const auto& issue : issues) {
    out << "  [" << fsck_kind_name(issue.kind) << "] " << ns_name(issue.ns)
        << '/' << issue.name << ": " << issue.detail << " ("
        << fsck_action_name(issue.action) << ")\n";
  }
  return out.str();
}

FsckReport fsck_repository(StorageBackend& raw, bool repair,
                           const fs::path& quarantine_dir) {
  FsckReport rep;

  // --- Pass 1a: record-stream namespaces (DiskChunks, containers) -------
  // Containers get the same treatment as legacy DiskChunk streams: a torn
  // tail is cut at the last intact record and resealed (every packed byte
  // before the tear survives); a CRC-failing stream is quarantined.
  std::unordered_map<std::string, std::uint64_t> chunk_logical;
  std::unordered_map<std::string, std::uint64_t> container_logical;
  for (const Ns stream_ns : {Ns::kDiskChunk, Ns::kContainer}) {
    auto& logical =
        stream_ns == Ns::kDiskChunk ? chunk_logical : container_logical;
    for (const auto& name : raw.list(stream_ns)) {
      ++rep.objects;
      const auto bytes = raw.get(stream_ns, name);
      if (!bytes) continue;
      const auto scan = framing::scan_records(*bytes);
      if (scan.sealed && !scan.corrupt && !scan.torn) {
        ++rep.clean_objects;
        logical.emplace(name, scan.logical_bytes);
        continue;
      }
      FsckIssue issue{stream_ns, name, FsckIssue::Kind::kCorrupt, "", {}};
      if (scan.corrupt) {
        ++rep.corrupt;
        issue.detail = "record CRC/structure mismatch after " +
                       std::to_string(scan.logical_bytes) + " good bytes";
        if (repair) {
          quarantine(raw, quarantine_dir, stream_ns, name, *bytes);
          issue.action = FsckIssue::Action::kQuarantined;
          ++rep.repaired;
        }
      } else {
        // Torn: every record before the tear is intact; cut and re-seal.
        ++rep.torn;
        issue.kind = FsckIssue::Kind::kTornTail;
        issue.detail = "stream ends unsealed at byte " +
                       std::to_string(scan.valid_prefix) + " of " +
                       std::to_string(bytes->size());
        if (repair) {
          ByteVec fixed(bytes->begin(),
                        bytes->begin() +
                            static_cast<std::ptrdiff_t>(scan.valid_prefix));
          append(fixed, framing::seal_record(scan.logical_bytes));
          raw.put(stream_ns, name, fixed);
          logical.emplace(name, scan.logical_bytes);
          rep.salvaged_bytes += scan.logical_bytes;
          issue.action = FsckIssue::Action::kTruncatedSealed;
          ++rep.repaired;
        }
      }
      rep.issues.push_back(std::move(issue));
    }
  }

  // --- Pass 1b: sealed-object namespaces --------------------------------
  std::array<std::unordered_map<std::string, ByteVec>, 4> payloads;
  const std::array<Ns, 4> sealed_ns = {Ns::kHook, Ns::kManifest,
                                       Ns::kFileManifest, Ns::kChunkMap};
  for (std::size_t s = 0; s < sealed_ns.size(); ++s) {
    const Ns ns = sealed_ns[s];
    for (const auto& name : raw.list(ns)) {
      ++rep.objects;
      const auto bytes = raw.get(ns, name);
      if (!bytes) continue;
      if (auto payload = framing::unseal_object(*bytes)) {
        ++rep.clean_objects;
        payloads[s].emplace(name, std::move(*payload));
        continue;
      }
      ++rep.corrupt;
      FsckIssue issue{ns, name, FsckIssue::Kind::kCorrupt,
                      "trailer CRC/structure mismatch", {}};
      if (repair) {
        quarantine(raw, quarantine_dir, ns, name, *bytes);
        issue.action = FsckIssue::Action::kQuarantined;
        ++rep.repaired;
      }
      rep.issues.push_back(std::move(issue));
    }
  }
  // --- Pass 1c: index objects (sealed; advisory, rebuildable) -----------
  // Two index families share Ns::kIndex: the disk index's objects and the
  // sampled similarity tier's "sampled-"-prefixed ones. Damage is tracked
  // per (scope, family) so Pass 3 rebuilds only the family actually hit.
  const auto is_sampled_object = [](const std::string& name) {
    const std::string base = name.substr(scope_of(name).size());
    return base.rfind("sampled-", 0) == 0;
  };
  std::unordered_set<std::string> damaged_index_scopes;
  std::unordered_set<std::string> damaged_sampled_scopes;
  for (const auto& name : raw.list(Ns::kIndex)) {
    ++rep.objects;
    const auto bytes = raw.get(Ns::kIndex, name);
    if (!bytes) continue;
    if (framing::unseal_object(*bytes)) {
      ++rep.clean_objects;
      continue;
    }
    ++rep.corrupt;
    (is_sampled_object(name) ? damaged_sampled_scopes : damaged_index_scopes)
        .insert(scope_of(name));
    FsckIssue issue{Ns::kIndex, name, FsckIssue::Kind::kCorrupt,
                    "trailer CRC/structure mismatch", {}};
    if (repair) {
      quarantine(raw, quarantine_dir, Ns::kIndex, name, *bytes);
      issue.action = FsckIssue::Action::kQuarantined;
      ++rep.repaired;
    }
    rep.issues.push_back(std::move(issue));
  }

  const auto& hooks = payloads[0];
  const auto& manifests = payloads[1];
  const auto& file_manifests = payloads[2];
  const auto& chunk_maps = payloads[3];

  // --- Pass 1d: extent maps must resolve into intact containers ---------
  // A committed chunk map is the durable identity of a container-packed
  // chunk: its logical length joins chunk_logical (so the reference pass
  // below treats packed and legacy chunks uniformly), but only when every
  // extent lands inside a clean/salvaged container — a chunk with any
  // unresolvable extent must fail reference checks loudly, not shortened.
  std::unordered_set<std::string> referenced_containers;
  for (const auto& [name, payload] : chunk_maps) {
    const auto extents = ContainerBackend::parse_extents(payload);
    if (!extents) {
      ++rep.broken_refs;
      rep.issues.push_back({Ns::kChunkMap, name, FsckIssue::Kind::kBrokenRef,
                            "CRC-clean but unparseable", {}});
      continue;
    }
    std::uint64_t total = 0;
    bool resolvable = true;
    for (const auto& e : *extents) {
      const std::string cname = ContainerBackend::container_name(e.container);
      referenced_containers.insert(cname);
      const auto it = container_logical.find(cname);
      if (it == container_logical.end() || e.offset > it->second ||
          e.length > it->second - e.offset) {
        resolvable = false;
        ++rep.broken_refs;
        rep.issues.push_back(
            {Ns::kChunkMap, name, FsckIssue::Kind::kBrokenRef,
             "extent [" + std::to_string(e.offset) + "," +
                 std::to_string(e.offset + e.length) +
                 ") unresolvable in container " + cname,
             {}});
        continue;
      }
      total += e.length;
    }
    if (resolvable) chunk_logical.emplace(name, total);
  }

  // --- Pass 2: cross-references (over clean/repaired objects only) ------
  std::unordered_set<std::string> referenced;
  for (const auto& [name, payload] : file_manifests) {
    const auto fm = FileManifest::deserialize(payload);
    if (!fm) {
      ++rep.broken_refs;
      rep.issues.push_back({Ns::kFileManifest, name,
                            FsckIssue::Kind::kBrokenRef,
                            "CRC-clean but unparseable", {}});
      continue;
    }
    for (const auto& e : fm->entries()) {
      const std::string chunk = scope_of(name) + e.chunk_name.hex();
      referenced.insert(chunk);
      const auto it = chunk_logical.find(chunk);
      const bool resolvable =
          it != chunk_logical.end() && e.offset <= it->second &&
          e.length <= it->second - e.offset;
      if (!resolvable) {
        ++rep.broken_refs;
        rep.issues.push_back(
            {Ns::kFileManifest, name, FsckIssue::Kind::kBrokenRef,
             "range [" + std::to_string(e.offset) + "," +
                 std::to_string(e.offset + e.length) +
                 ") unresolvable in chunk " + chunk,
             {}});
      }
    }
  }

  for (const auto& [name, payload] : manifests) {
    const auto m = Manifest::deserialize(payload);
    if (!m || scope_of(name) + m->chunk_name().hex() != name) {
      continue;  // engine-specific
    }
    const auto it = chunk_logical.find(name);
    if (it == chunk_logical.end()) {
      ++rep.broken_refs;
      rep.issues.push_back({Ns::kManifest, name, FsckIssue::Kind::kBrokenRef,
                            "manifest for missing chunk", {}});
    }
  }

  for (const auto& [name, payload] : hooks) {
    const auto target = hook_target(payload);
    if (target && manifests.count(scope_of(name) + *target) > 0) continue;
    ++rep.dangling_hooks;
    FsckIssue issue{Ns::kHook, name, FsckIssue::Kind::kDanglingHook,
                    target ? "target manifest " + *target + " missing"
                           : "malformed hook payload",
                    {}};
    if (repair) {
      // Hooks are a rebuildable similarity index, never user data.
      raw.remove(Ns::kHook, name);
      issue.action = FsckIssue::Action::kRemoved;
      ++rep.repaired;
    }
    rep.issues.push_back(std::move(issue));
  }

  // --- Pass 3: fingerprint index vs live hooks/manifests ----------------
  // The index is advisory: any inconsistency (torn objects, a missing
  // commit point, entries naming removed manifests) is repaired by
  // rebuilding from the hooks, never by touching user data. A
  // multi-tenant repository carries one index PER tenant scope, each
  // checked and rebuilt against the hooks of the same scope — and each
  // scope may carry either index family (disk and/or sampled), checked
  // and rebuilt independently so a sampled-only scope is never "repaired"
  // into a disk index or vice versa.
  std::set<std::string> disk_scopes, sampled_scopes;
  for (const auto& name : raw.list(Ns::kIndex)) {
    (is_sampled_object(name) ? sampled_scopes : disk_scopes)
        .insert(scope_of(name));
  }
  for (const auto& scope : damaged_index_scopes) disk_scopes.insert(scope);
  for (const auto& scope : damaged_sampled_scopes) {
    sampled_scopes.insert(scope);
  }
  for (const auto& scope : disk_scopes) {
    ScopedBackend view(raw, scope);
    IndexCheckReport index = check_index(view);
    const bool damaged = damaged_index_scopes.count(scope) > 0;
    if (!index.meta_ok || index.stale_entries > 0 ||
        index.corrupt_objects > 0 || damaged) {
      ++rep.index_issues;
      FsckIssue issue{
          Ns::kIndex, scope + "meta", FsckIssue::Kind::kIndexInconsistent,
          !index.meta_ok
              ? "index objects present but meta unreadable"
              : std::to_string(index.stale_entries) + " stale entries, " +
                    std::to_string(index.corrupt_objects) +
                    " corrupt objects",
          {}};
      if (repair) {
        rebuild_index(view);
        index = check_index(view);
        issue.action = FsckIssue::Action::kRebuilt;
        ++rep.repaired;
      }
      rep.issues.push_back(std::move(issue));
    }
    rep.index_entries += index.entries;
    rep.stale_index_entries += index.stale_entries;
  }
  for (const auto& scope : sampled_scopes) {
    ScopedBackend view(raw, scope);
    SampledCheckReport sampled = check_sampled_index(view);
    const bool damaged = damaged_sampled_scopes.count(scope) > 0;
    if (!sampled.meta_ok || sampled.stale_champions > 0 ||
        sampled.corrupt_objects > 0 || damaged) {
      ++rep.index_issues;
      FsckIssue issue{
          Ns::kIndex, scope + "sampled-meta",
          FsckIssue::Kind::kIndexInconsistent,
          !sampled.meta_ok
              ? "sampled-tier objects present but meta unreadable"
              : std::to_string(sampled.stale_champions) +
                    " stale champions, " +
                    std::to_string(sampled.corrupt_objects) +
                    " corrupt objects",
          {}};
      if (repair) {
        rebuild_sampled_index(view);
        sampled = check_sampled_index(view);
        issue.action = FsckIssue::Action::kRebuilt;
        ++rep.repaired;
      }
      rep.issues.push_back(std::move(issue));
    }
    rep.sampled_hook_entries += sampled.hook_entries;
    rep.stale_sampled_champions += sampled.stale_champions;
  }

  for (const auto& [name, logical] : chunk_logical) {
    if (referenced.count(name) > 0) continue;
    ++rep.orphans;
    rep.issues.push_back({Ns::kDiskChunk, name, FsckIssue::Kind::kOrphan,
                          std::to_string(logical) +
                              " logical bytes unreachable from any "
                              "FileManifest (collect_garbage reclaims)",
                          {}});
  }
  for (const auto& [name, logical] : container_logical) {
    if (referenced_containers.count(name) > 0) continue;
    ++rep.orphans;
    rep.issues.push_back({Ns::kContainer, name, FsckIssue::Kind::kOrphan,
                          std::to_string(logical) +
                              " payload bytes referenced by no chunk map "
                              "(sweep_containers reclaims)",
                          {}});
  }

  return rep;
}

}  // namespace mhd
