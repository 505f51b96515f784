#include "mhd/store/scrub.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "mhd/format/file_manifest.h"
#include "mhd/format/manifest.h"
#include "mhd/hash/sha1.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/container_store.h"
#include "mhd/store/framing.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/scoped_backend.h"
#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

namespace fs = std::filesystem;
using Kind = FsckIssue::Kind;
using Action = FsckIssue::Action;

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

/// Takes a chunk's bytes in order, in pieces of any size, and checks each
/// entry of its manifest (which tiles the chunk) against their SHA-1.
class EntryHasher {
 public:
  explicit EntryHasher(const Manifest& m) : entries_(m.entries()) {}

  void feed(ByteSpan bytes) {
    while (next_ < entries_.size()) {
      const ManifestEntry& e = entries_[next_];
      const std::uint64_t end = e.offset + e.size;
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(bytes.size(), end - pos_));
      sha_.update(bytes.first(take));
      bytes = bytes.subspan(take);
      pos_ += take;
      if (pos_ != end) return;  // the entry continues in the next piece
      if (sha_.digest() != e.hash) ++mismatches_;
      sha_.reset();
      ++next_;
    }
  }

  std::uint64_t mismatches() const { return mismatches_; }

 private:
  const std::vector<ManifestEntry>& entries_;
  Sha1 sha_;
  std::size_t next_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// A stream's logical bytes as views into its stored bytes, never a copy:
/// the payloads of a framed stream's intact records, or a plain object.
std::vector<ByteSpan> payload_pieces(ByteSpan stored, bool framed) {
  if (!framed) return {stored};
  std::vector<std::uint64_t> at;
  std::uint64_t left = framing::scan_records(stored, &at).logical_bytes;
  std::vector<ByteSpan> pieces;
  for (std::size_t i = 0; i < at.size(); ++i) {
    const std::uint64_t from = at[i] + framing::kHeaderBytes;
    const std::uint64_t len = i + 1 < at.size() ? at[i + 1] - from : left;
    pieces.push_back(stored.subspan(from, len));
    left -= len;
  }
  return pieces;
}

/// Feeds bytes [offset, offset + length) of the stream `pieces` holds.
void feed_range(EntryHasher& hasher, const std::vector<ByteSpan>& pieces,
                std::uint64_t offset, std::uint64_t length) {
  for (const ByteSpan piece : pieces) {
    if (length == 0) return;
    if (offset >= piece.size()) {
      offset -= piece.size();
      continue;
    }
    const auto take = std::min<std::uint64_t>(piece.size() - offset, length);
    hasher.feed(piece.subspan(offset, take));
    offset = 0;
    length -= take;
  }
}

class Checker {
 public:
  Checker(StorageBackend& backend, bool repair, fs::path quarantine_dir,
          bool framed)
      : raw_(backend),
        repair_(repair),
        quarantine_dir_(std::move(quarantine_dir)),
        framed_(framed) {}

  FsckReport run() {
    // A pack region whose record headers fail their check holds no object
    // a read could report: the layout names it. A repair's fold
    // (FileBackend::sweep_temps) saves it under quarantine/ and drops it.
    for (const LayoutDamage& d : raw_.layout_damage()) {
      add(Kind::kCorrupt, d.ns, d.file + "@" + std::to_string(d.offset),
          std::to_string(d.length) +
              " bytes fail their pack record check (fsck repair "
              "quarantines them)");
    }
    // Containers sit below the scopes: their framing is checked once.
    for (const auto& name : framed_ ? raw_.list(Ns::kContainer)
                                    : std::vector<std::string>{}) {
      const auto stored = read(Ns::kContainer, name);
      const auto logical =
          stored ? check_stream(Ns::kContainer, name, *stored) : std::nullopt;
      if (logical) container_bytes_.emplace(name, *logical);
    }
    for (const auto& scope : list_scopes(raw_)) check_scope(scope);
    for (const auto& name : raw_.list(Ns::kContainer)) {
      if (referenced_containers_.count(name) == 0 &&
          (!framed_ || container_bytes_.count(name) > 0)) {
        add(Kind::kOrphan, Ns::kContainer, name,
            "referenced by no chunk map (collect_garbage reclaims)");
      }
    }
    return std::move(rep_);
  }

 private:
  void check_scope(const std::string& scope) {
    ScopedBackend view(raw_, scope);
    // Manifests first: the chunk reads below check the standard ones,
    // which name and tile their own chunk.
    std::unordered_set<std::string> manifests;
    std::unordered_map<std::string, Manifest> standard;
    for (const auto& name : view.list(Ns::kManifest)) {
      const auto payload = sealed(Ns::kManifest, scope + name);
      if (!payload) continue;
      manifests.insert(name);
      auto m = Manifest::deserialize(*payload);
      if (m && m->chunk_name().hex() == name) {
        standard.emplace(name, std::move(*m));
      }
    }
    // The standard manifest to hash a chunk of `length` bytes against;
    // nullptr when there is none or it does not tile the chunk (reported).
    const auto to_hash = [&](const std::string& name,
                             std::uint64_t length) -> const Manifest* {
      const auto it = standard.find(name);
      if (it == standard.end()) return nullptr;
      if (it->second.tiles(length)) return &it->second;
      add(Kind::kBrokenRef, Ns::kManifest, scope + name,
          "entries do not tile the chunk's " + std::to_string(length) +
              " bytes");
      return nullptr;
    };

    // Chunks stored whole, hashed as they are read.
    std::unordered_map<std::string, std::uint64_t> chunks;
    const auto listed = view.list(Ns::kDiskChunk);
    for (const auto& name : listed) {
      const auto stored = read(Ns::kDiskChunk, scope + name);
      if (!stored) continue;
      std::optional<std::uint64_t> logical = stored->size();
      if (framed_) {
        logical = check_stream(Ns::kDiskChunk, scope + name, *stored);
      } else {
        ++rep_.clean_objects;
      }
      if (!logical) continue;
      chunks.emplace(name, *logical);
      const Manifest* m = to_hash(name, *logical);
      if (m == nullptr) continue;
      EntryHasher hasher(*m);
      feed_range(hasher, payload_pieces(*stored, framed_), 0, *logical);
      report_hashes(scope + name, hasher);
    }

    // Chunks packed into containers: a committed extent map is the durable
    // identity of a chunk Ns::kDiskChunk does not list. Its length counts
    // only when every extent lands inside an intact container — a chunk
    // with an unresolvable extent must fail its references loudly, not
    // shortened.
    const std::unordered_set<std::string> whole(listed.begin(), listed.end());
    std::vector<std::pair<std::string, std::vector<ContainerBackend::Extent>>>
        packed;
    for (const auto& name : view.list(Ns::kChunkMap)) {
      const auto payload = sealed(Ns::kChunkMap, scope + name);
      if (!payload) continue;
      auto extents = ContainerBackend::parse_extents(*payload);
      if (!extents) {
        add(Kind::kBrokenRef, Ns::kChunkMap, scope + name, "unparseable");
        continue;
      }
      for (const auto& e : *extents) {
        referenced_containers_.insert(
            ContainerBackend::container_name(e.container));
      }
      if (whole.count(name) > 0) continue;  // read through kDiskChunk
      bool resolvable = true;
      std::uint64_t total = 0;
      for (const auto& e : *extents) {
        const auto length = container_length(e.container);
        total += e.length;
        if (length && e.offset <= *length && e.length <= *length - e.offset) {
          continue;
        }
        resolvable = false;
        add(Kind::kBrokenRef, Ns::kChunkMap, scope + name,
            "extent [" + std::to_string(e.offset) + "," +
                std::to_string(e.offset + e.length) +
                ") unresolvable in container " +
                ContainerBackend::container_name(e.container));
      }
      if (!resolvable) continue;
      chunks.emplace(name, total);
      if (to_hash(name, total) != nullptr && !extents->empty()) {
        packed.emplace_back(name, std::move(*extents));
      }
    }
    // Hashed in placement order through a one-container window, so each
    // container the scope packs into is read about once.
    std::sort(packed.begin(), packed.end(), [](const auto& a, const auto& b) {
      const auto &x = a.second.front(), &y = b.second.front();
      return std::tie(x.container, x.offset) < std::tie(y.container, y.offset);
    });
    for (const auto& [name, extents] : packed) {
      EntryHasher hasher(standard.at(name));
      for (const auto& e : extents) {
        if (!load_container(e.container)) break;  // gone since measured
        feed_range(hasher, window_pieces_, e.offset, e.length);
      }
      report_hashes(scope + name, hasher);
    }

    std::unordered_set<std::string> referenced;
    for (const auto& name : view.list(Ns::kFileManifest)) {
      const auto payload = sealed(Ns::kFileManifest, scope + name);
      if (!payload) continue;
      const auto fm = FileManifest::deserialize(*payload);
      if (!fm) {
        add(Kind::kBrokenRef, Ns::kFileManifest, scope + name, "unparseable");
        continue;
      }
      for (const auto& e : fm->entries()) {
        const std::string chunk = e.chunk_name.hex();
        referenced.insert(chunk);
        const auto it = chunks.find(chunk);
        if (it == chunks.end() || e.offset > it->second ||
            e.length > it->second - e.offset) {
          add(Kind::kBrokenRef, Ns::kFileManifest, scope + name,
              "range [" + std::to_string(e.offset) + "," +
                  std::to_string(e.offset + e.length) +
                  ") unresolvable in chunk " + scope + chunk);
        }
      }
    }
    for (const auto& [name, m] : standard) {
      if (chunks.count(name) == 0) {
        add(Kind::kBrokenRef, Ns::kManifest, scope + name,
            "manifest for missing chunk");
      }
    }

    for (const auto& name : view.list(Ns::kHook)) {
      const auto payload = sealed(Ns::kHook, scope + name);
      if (!payload) continue;
      const auto target = hook_target(*payload);
      if (target && manifests.count(*target) > 0) continue;
      auto& issue = add(Kind::kDanglingHook, Ns::kHook, scope + name,
                        target ? "target manifest " + *target + " missing"
                               : "malformed hook payload");
      if (repair_) {
        // Hooks are a rebuildable similarity index, never user data.
        raw_.remove(Ns::kHook, scope + name);
        fixed(issue, Action::kRemoved);
      }
    }

    check_tiers(view, scope);

    for (const auto& [name, logical] : chunks) {
      if (referenced.count(name) > 0) continue;
      add(Kind::kOrphan, Ns::kDiskChunk, scope + name,
          std::to_string(logical) +
              " logical bytes unreachable from any FileManifest "
              "(collect_garbage reclaims)");
    }
  }

  /// The scope's index tiers. The disk tier and the sampled tier
  /// ("sampled-" objects) share Ns::kIndex. Every disk-tier object is
  /// advisory (its warm list, aux blobs, or an earlier version's pages), so
  /// each only has to be sealed, and repair deletes a damaged one. The
  /// sampled tier is checked against the live manifests and rebuilt from
  /// the hooks, so a scope with one tier is never "repaired" into having
  /// the other.
  void check_tiers(ScopedBackend& view, const std::string& scope) {
    bool sampled = false, sampled_damaged = false;
    for (const auto& name : view.list(Ns::kIndex)) {
      const auto payload = sealed(Ns::kIndex, scope + name);
      if (name.rfind("sampled-", 0) == 0) {
        sampled = true;
        sampled_damaged |= !payload;
      } else if (payload && !framing::unseal_object(*payload)) {
        auto& issue = add(Kind::kIndexInconsistent, Ns::kIndex, scope + name,
                          "index object fails its seal");
        if (repair_) {
          raw_.remove(Ns::kIndex, scope + name);
          fixed(issue, Action::kRemoved);
        }
      }
    }
    if (!sampled) return;
    SampledCheckReport r = check_sampled_index(view);
    if (!r.meta_ok || r.stale_champions != 0 || r.corrupt_objects != 0 ||
        sampled_damaged) {
      auto& issue = add(
          Kind::kIndexInconsistent, Ns::kIndex, scope + "sampled-meta",
          !r.meta_ok ? "objects present but meta unreadable"
                     : std::to_string(r.stale_champions) +
                           " stale champions, " +
                           std::to_string(r.corrupt_objects) +
                           " corrupt objects");
      if (repair_) {
        rebuild_sampled_index(view);
        fixed(issue, Action::kRebuilt);
        r = check_sampled_index(view);
      }
    }
    rep_.sampled_hook_entries += r.hook_entries;
    rep_.stale_sampled_champions += r.stale_champions;
  }

  /// The object's stored bytes; nullopt when absent, or when the backend
  /// refuses the read as corrupt (a plain logical stack), which is
  /// reported.
  std::optional<ByteVec> read(Ns ns, const std::string& name) {
    ++rep_.objects;
    try {
      return raw_.get(ns, name);
    } catch (const CorruptObjectError& e) {
      add(Kind::kCorrupt, ns, name, e.what());
      return std::nullopt;
    }
  }

  /// A sealed object's payload; nullopt when it is absent or damaged.
  std::optional<ByteVec> sealed(Ns ns, const std::string& name) {
    auto stored = read(ns, name);
    if (stored && framed_) {
      auto payload = framing::unseal_object(*stored);
      if (!payload) {
        damaged(ns, name, "trailer CRC/structure mismatch", *stored);
        return std::nullopt;
      }
      stored = std::move(payload);
    }
    if (stored) ++rep_.clean_objects;
    return stored;
  }

  /// Verdict on one framed record stream: the logical bytes a reader can
  /// rely on — the whole stream when clean, the salvaged prefix when its
  /// torn tail was cut off and resealed — or nullopt.
  std::optional<std::uint64_t> check_stream(Ns ns, const std::string& name,
                                            const ByteVec& stored) {
    const auto scan = framing::scan_records(stored);
    if (scan.sealed && !scan.corrupt && !scan.torn) {
      ++rep_.clean_objects;
      return scan.logical_bytes;
    }
    if (scan.corrupt) {
      damaged(ns, name,
              "record CRC/structure mismatch after " +
                  std::to_string(scan.logical_bytes) + " good bytes",
              stored);
      return std::nullopt;
    }
    // Torn: every record before the tear is intact; cut and re-seal.
    auto& issue = add(Kind::kTornTail, ns, name,
                      "stream ends unsealed at byte " +
                          std::to_string(scan.valid_prefix) + " of " +
                          std::to_string(stored.size()));
    if (!repair_) return std::nullopt;
    ByteVec fixed_bytes(
        stored.begin(),
        stored.begin() + static_cast<std::ptrdiff_t>(scan.valid_prefix));
    append(fixed_bytes, framing::seal_record(scan.logical_bytes));
    raw_.put(ns, name, fixed_bytes);
    rep_.salvaged_bytes += scan.logical_bytes;
    fixed(issue, Action::kTruncatedSealed);
    return scan.logical_bytes;
  }

  /// Logical bytes of container `id`: from the framing pass when framed,
  /// else from its size, read on first use.
  std::optional<std::uint64_t> container_length(std::uint64_t id) {
    const std::string name = ContainerBackend::container_name(id);
    if (const auto it = container_bytes_.find(name);
        it != container_bytes_.end()) {
      return it->second;
    }
    if (framed_ || !load_container(id)) return std::nullopt;
    return container_bytes_.emplace(name, window_->size()).first->second;
  }

  /// Reads container `id` into the window unless it is there already;
  /// false when it cannot be read. Only the last one read is kept: chunks
  /// visited in placement order read each container once.
  bool load_container(std::uint64_t id) {
    if (window_id_ != id) {
      window_id_ = id;
      window_pieces_.clear();
      window_ = raw_.get(Ns::kContainer, ContainerBackend::container_name(id));
      if (window_) window_pieces_ = payload_pieces(*window_, framed_);
    }
    return window_.has_value();
  }

  void report_hashes(const std::string& name, const EntryHasher& hasher) {
    if (hasher.mismatches() == 0) return;
    add(Kind::kHashMismatch, Ns::kManifest, name,
        "SHA-1 of " + std::to_string(hasher.mismatches()) +
            " entries differs from the chunk's bytes");
  }

  /// A framed object whose bytes fail their CRC: quarantined by repair.
  void damaged(Ns ns, const std::string& name, std::string detail,
               const ByteVec& stored) {
    auto& issue = add(Kind::kCorrupt, ns, name, std::move(detail));
    if (!repair_) return;
    quarantine(raw_, quarantine_dir_, ns, name, stored);
    fixed(issue, Action::kQuarantined);
  }

  FsckIssue& add(Kind kind, Ns ns, std::string name, std::string detail) {
    ++counter(kind);
    return rep_.issues.emplace_back(
        FsckIssue{ns, std::move(name), kind, std::move(detail), {}});
  }

  void fixed(FsckIssue& issue, Action action) {
    issue.action = action;
    ++rep_.repaired;
  }

  std::uint64_t& counter(Kind kind) {
    switch (kind) {
      case Kind::kTornTail: return rep_.torn;
      case Kind::kCorrupt: return rep_.corrupt;
      case Kind::kDanglingHook: return rep_.dangling_hooks;
      case Kind::kBrokenRef: return rep_.broken_refs;
      case Kind::kOrphan: return rep_.orphans;
      case Kind::kIndexInconsistent: return rep_.index_issues;
      case Kind::kHashMismatch: return rep_.hash_mismatches;
    }
    return rep_.corrupt;
  }

  StorageBackend& raw_;
  const bool repair_;
  const fs::path quarantine_dir_;
  const bool framed_;
  FsckReport rep_;
  /// Intact containers and their logical bytes.
  std::unordered_map<std::string, std::uint64_t> container_bytes_;
  std::unordered_set<std::string> referenced_containers_;
  std::uint64_t window_id_ = ~0ull;
  std::optional<ByteVec> window_;  ///< stored bytes of container window_id_
  std::vector<ByteSpan> window_pieces_;  ///< its logical bytes, in window_
};

}  // namespace

const char* fsck_kind_name(FsckIssue::Kind kind) {
  switch (kind) {
    case FsckIssue::Kind::kTornTail: return "torn-tail";
    case FsckIssue::Kind::kCorrupt: return "corrupt";
    case FsckIssue::Kind::kDanglingHook: return "dangling-hook";
    case FsckIssue::Kind::kBrokenRef: return "broken-ref";
    case FsckIssue::Kind::kOrphan: return "orphan";
    case FsckIssue::Kind::kIndexInconsistent: return "index-inconsistent";
    case FsckIssue::Kind::kHashMismatch: return "hash-mismatch";
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
  if (hash_mismatches != 0) {
    out << ", " << hash_mismatches << " hash mismatches";
  }
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

FsckReport fsck_repository(StorageBackend& backend, bool repair,
                           const fs::path& quarantine_dir, bool framed) {
  return Checker(backend, repair, quarantine_dir, framed).run();
}

}  // namespace mhd
