#include "mhd/store/file_backend.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <memory_resource>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "mhd/store/store_errors.h"
#include "mhd/util/crc32c.h"

namespace mhd {

namespace fs = std::filesystem;

namespace {

/// Temp files from interrupted atomic puts carry this suffix; object names
/// are hex digests and can never collide with it.
constexpr std::string_view kTmpSuffix = ".tmp";

bool is_tmp(std::string_view name) { return name.ends_with(kTmpSuffix); }

constexpr std::string_view kPackSuffix = ".pack";
constexpr std::uint32_t kPackMagic = 0x4B50484D;  // "MHPK"
constexpr Byte kPut = 1;
constexpr Byte kTombstone = 2;
constexpr std::size_t kHeader = FileBackend::kRecordHeaderBytes;
/// Scans read packs in blocks of this size, so a pack of small records is
/// read once and a large payload is skipped, not read.
constexpr std::size_t kScanBlock = 64 << 10;

/// `<seq>.pack` (seq >= 1, no leading zero) -> seq; nullopt for any other
/// name, which is a loose object's.
std::optional<std::uint64_t> pack_seq(std::string_view name) {
  if (!name.ends_with(kPackSuffix)) return std::nullopt;
  const std::string_view digits =
      name.substr(0, name.size() - kPackSuffix.size());
  if (digits.empty() || digits.size() > 19 || digits[0] == '0') {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

std::string pack_file(std::uint64_t seq) {
  return std::to_string(seq) + std::string(kPackSuffix);
}

struct RecordHeader {
  Byte kind;
  std::uint16_t name_len;
  std::uint64_t payload_len;
  std::uint32_t name_crc;
};

std::array<Byte, kHeader> encode_header(Byte kind, std::string_view name,
                                        std::uint64_t payload_len) {
  std::array<Byte, kHeader> h{};
  store_le<std::uint32_t>(h.data(), kPackMagic);
  h[4] = kind;
  store_le<std::uint16_t>(h.data() + 6,
                          static_cast<std::uint16_t>(name.size()));
  store_le<std::uint64_t>(h.data() + 8, payload_len);
  store_le<std::uint32_t>(h.data() + 16, crc32c(0, as_bytes(name)));
  store_le<std::uint32_t>(h.data() + 20, crc32c(0, ByteSpan(h.data(), 20)));
  return h;
}

/// The header at `h` (kHeader bytes); nullopt when it fails its check.
std::optional<RecordHeader> decode_header(const Byte* h) {
  if (load_le<std::uint32_t>(h) != kPackMagic ||
      load_le<std::uint32_t>(h + 20) != crc32c(0, ByteSpan(h, 20))) {
    return std::nullopt;
  }
  const RecordHeader r{h[4], load_le<std::uint16_t>(h + 6),
                       load_le<std::uint64_t>(h + 8),
                       load_le<std::uint32_t>(h + 16)};
  const bool known = (r.kind == kPut || (r.kind == kTombstone &&
                                         r.payload_len == 0)) &&
                     h[5] == 0 && r.name_len != 0;
  if (!known) return std::nullopt;
  return r;
}

/// Fills `out` from `offset` of `fd`, retrying EINTR. False on an error or
/// a short read (the file ends first).
bool read_fully(int fd, std::uint64_t offset, MutByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes every byte of `iov` at `offset`, looping on short writes, EINTR
/// and batches of more than IOV_MAX entries. False (errno set) on an
/// error; the entries written whole are then those of zero length left
/// at the front of `iov`.
bool write_fully(int fd, std::span<iovec> iov, std::uint64_t offset) {
  std::size_t first = 0;
  while (first < iov.size()) {
    if (iov[first].iov_len == 0) {
      ++first;
      continue;
    }
    const ssize_t n = ::pwritev(
        fd, iov.data() + first,
        static_cast<int>(std::min<std::size_t>(iov.size() - first, IOV_MAX)),
        static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    offset += static_cast<std::uint64_t>(n);
    for (auto left = static_cast<std::size_t>(n); left > 0;) {
      const std::size_t take = std::min(left, iov[first].iov_len);
      iov[first].iov_base = static_cast<Byte*>(iov[first].iov_base) + take;
      iov[first].iov_len -= take;
      left -= take;
      if (iov[first].iov_len == 0) ++first;
    }
  }
  return true;
}

/// Writes one pack record at `offset` of `fd`; false (errno set) on an
/// error.
bool write_record_at(int fd, std::uint64_t offset, Byte kind,
                     std::string_view name, ByteSpan payload) {
  auto header = encode_header(kind, name, payload.size());
  std::array<iovec, 3> iov{{
      {header.data(), header.size()},
      {const_cast<char*>(name.data()), name.size()},
      {const_cast<Byte*>(payload.data()), payload.size()},
  }};
  return write_fully(fd, iov, offset);
}

/// Writes `iov` at the end of `path`, opened write-only with O_CREAT and
/// `flags`, then closes it. A short write (ENOSPC, quota) or a failed
/// close surfaces as BackendIoError, never as a silently truncated object;
/// the entries written whole are then those of zero length left at the
/// front of `iov`.
void write_to_end(const fs::path& path, int flags, std::span<iovec> iov) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | flags, 0666);
  if (fd < 0) throw BackendIoError("FileBackend: cannot open " + path.string());
  const off_t end = ::lseek(fd, 0, SEEK_END);
  const bool written =
      end >= 0 && write_fully(fd, iov, static_cast<std::uint64_t>(end));
  const std::string why = written ? "close failed" : std::strerror(errno);
  const bool closed = ::close(fd) == 0;
  if (!written || !closed) {
    throw BackendIoError("FileBackend: writing " + path.string() +
                         " failed: " + why);
  }
}

/// A read-only descriptor, closed on every path out of its scope unless
/// borrowed.
class ReadFd {
 public:
  explicit ReadFd(const fs::path& p)
      : fd_(::open(p.c_str(), O_RDONLY | O_CLOEXEC)),
        error_(fd_ < 0 ? errno : 0) {}
  /// Uses `fd` without taking ownership.
  static ReadFd borrow(int fd) { return ReadFd(fd); }
  ~ReadFd() {
    if (owned_ && fd_ >= 0) ::close(fd_);
  }
  ReadFd(const ReadFd&) = delete;
  ReadFd& operator=(const ReadFd&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// True when the open failed because the file does not exist.
  bool absent() const { return error_ == ENOENT; }
  int fd() const { return fd_; }

  /// The file's size; nullopt when fstat fails.
  std::optional<std::uint64_t> size() const {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) return std::nullopt;
    return static_cast<std::uint64_t>(st.st_size);
  }

  bool read_at(std::uint64_t offset, MutByteSpan out) const {
    return read_fully(fd_, offset, out);
  }

 private:
  explicit ReadFd(int fd) : fd_(fd), error_(0), owned_(false) {}

  int fd_;
  int error_;
  bool owned_ = true;
};

/// Calls `f(name)` for each regular file (or entry of unknown type) in
/// `dir`. Throws BackendIoError when `dir` cannot be read.
template <typename F>
void for_each_file(const fs::path& dir, F&& f) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw BackendIoError("FileBackend: cannot list " + dir.string());
  }
  const struct Closer {
    DIR* d;
    ~Closer() { ::closedir(d); }
  } closer{d};
  while (const dirent* e = ::readdir(d)) {
    if (e->d_type != DT_REG && e->d_type != DT_UNKNOWN) continue;
    const std::string_view name = e->d_name;
    if (name != "." && name != "..") f(name);
  }
}

/// A moving view of a pack during a scan: bytes [offset, offset + n) are
/// read in kScanBlock blocks, so records that follow one another come from
/// one read and a payload longer than a block is skipped.
class ScanWindow {
 public:
  ScanWindow(int fd, std::uint64_t size) : fd_(fd), size_(size) {}

  /// The bytes at [offset, offset + n), which lie before the size the scan
  /// started from; nullptr when the file has since become shorter.
  const Byte* at(std::uint64_t offset, std::size_t n) {
    if (offset < from_ || offset + n > from_ + len_) {
      const std::size_t want = std::max(n, kScanBlock);
      if (buf_.size() < want) buf_.resize(want);
      len_ = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, size_ - offset));
      from_ = offset;
      if (!read_fully(fd_, offset, MutByteSpan(buf_.data(), len_))) {
        len_ = 0;
        return nullptr;
      }
    }
    return buf_.data() + (offset - from_);
  }

 private:
  int fd_;
  std::uint64_t size_;
  ByteVec buf_;
  std::uint64_t from_ = 0;
  std::size_t len_ = 0;
};

}  // namespace

/// One packed namespace: the packs this instance knows, in `seq` order,
/// and the name -> location map built from them and the loose files.
/// Every member runs under `mu`.
class FileBackend::Packs {
 public:
  Packs(fs::path dir, fs::path quarantine)
      : dir_(std::move(dir)), quarantine_(std::move(quarantine)) {}
  ~Packs() { close_out(); }
  Packs(const Packs&) = delete;
  Packs& operator=(const Packs&) = delete;

  std::mutex mu;

  std::optional<ByteVec> read(const std::string& name, std::uint64_t offset,
                              std::optional<std::uint64_t> length) {
    auto loc = find(name);
    if (!loc) return std::nullopt;
    Read r = read_loc(name, *loc, offset, length);
    if (r.vanished) {
      // Another instance's fold moved the object into a new pack.
      refresh();
      loc = lookup(name);
      if (!loc) return std::nullopt;
      r = read_loc(name, *loc, offset, length);
    }
    return std::move(r.bytes);
  }

  bool exists(const std::string& name) { return find(name).has_value(); }

  void put(const std::string& name, ByteSpan data) {
    const auto before = lookup_loaded(name);
    write_record(kPut, name, data);
    if (before && before->pack == kLoose) ::unlink((dir_ / name).c_str());
  }

  bool remove(const std::string& name) {
    const auto before = find(name);
    if (!before) return false;
    write_record(kTombstone, name, {});
    if (before->pack == kLoose) ::unlink((dir_ / name).c_str());
    return true;
  }

  std::vector<std::string> list() {
    refresh();
    std::vector<std::string> out;
    out.reserve(names_.size());
    for (const auto& [name, loc] : names_) out.emplace_back(name);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::uint64_t count() {
    refresh();
    return names_.size();
  }

  std::uint64_t bytes() {
    refresh();
    std::uint64_t total = packed_bytes_;
    for (const auto& [name, loc] : names_) {
      if (loc.pack != kLoose) continue;
      struct stat st {};
      if (::stat((dir_ / name).c_str(), &st) == 0) {
        total += static_cast<std::uint64_t>(st.st_size);
      }
    }
    return total;
  }

  void add_damage(Ns ns, std::vector<LayoutDamage>& out) {
    refresh();
    for (const Pack& k : packs_) {
      for (const auto& [offset, length] : k.damage) {
        out.push_back({ns, pack_file(k.seq), offset, length});
      }
    }
  }

  /// FileBackend::sweep_temps's work on this namespace, in the order
  /// DESIGN.md's crash argument needs. Adds the damaged regions it saved
  /// and dropped to `quarantined`.
  void fold(Ns ns, std::vector<LayoutDamage>& quarantined) {
    close_out();  // this instance's pack is folded too
    load();
    for (Pack& k : packs_) {
      if (!k.torn) continue;
      if (::truncate(pack_path(k.seq).c_str(), static_cast<off_t>(k.end)) !=
          0) {
        throw BackendIoError("FileBackend: cannot truncate the torn tail of " +
                             pack_path(k.seq).string());
      }
      k.torn = false;
    }
    std::vector<std::string> loose;
    for_each_file(dir_, [&](std::string_view name) {
      if (!is_tmp(name) && !pack_seq(name)) loose.emplace_back(name);
    });
    const bool damaged = std::any_of(packs_.begin(), packs_.end(),
                                     [](const Pack& k) {
                                       return !k.damage.empty();
                                     });
    if (loose.empty() && !damaged && records_ == packed_ &&
        packs_.size() <= 1) {
      return;
    }
    for (const Pack& k : packs_) {
      for (const auto& [offset, length] : k.damage) {
        quarantine_region(k.seq, offset, length);
        quarantined.push_back({ns, pack_file(k.seq), offset, length});
      }
    }
    // A loose file that a pack record replaced or erased is dead already.
    std::vector<std::string> folded;
    for (auto& name : loose) {
      const auto it = names_.find(name);
      if (it != names_.end() && it->second.pack == kLoose) {
        folded.push_back(std::move(name));
      } else {
        ::unlink((dir_ / name).c_str());
      }
    }
    write_fold_pack(max_seq() + 1);
    for (const Pack& k : packs_) ::unlink(pack_path(k.seq).c_str());
    for (const auto& name : folded) ::unlink((dir_ / name).c_str());
    load();
  }

 private:
  /// Where an object's bytes are: a payload in a pack, or a loose file.
  struct Loc {
    std::uint32_t pack;    ///< index into packs_, or kLoose
    std::uint64_t offset;  ///< of the payload in the pack
    std::uint64_t length;  ///< payload bytes
  };
  static constexpr std::uint32_t kLoose = UINT32_MAX;

  using Name = std::pmr::string;
  /// Transparent, so a lookup by std::string or string_view copies nothing.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct NameEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };
  using Names = std::pmr::unordered_map<Name, Loc, NameHash, NameEq>;

  struct Pack {
    explicit Pack(std::uint64_t s) : seq(s) {}
    std::uint64_t seq;
    std::uint64_t end = 0;  ///< the next unread record starts here
    bool torn = false;      ///< the record at `end` runs past end-of-file
    /// (offset, length) regions whose headers fail their check.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> damage;
  };

  struct Read {
    bool vanished = false;  ///< the file holding it is gone
    std::optional<ByteVec> bytes;
  };

  fs::path pack_path(std::uint64_t seq) const { return dir_ / pack_file(seq); }
  std::uint64_t max_seq() const {
    return packs_.empty() ? 0 : packs_.back().seq;
  }

  std::optional<Loc> lookup(const std::string& name) const {
    const auto it = names_.find(name);
    if (it == names_.end()) return std::nullopt;
    return it->second;
  }

  std::optional<Loc> lookup_loaded(const std::string& name) {
    if (!loaded_) load();
    return lookup(name);
  }

  /// The object's location; a miss first reads what other instances
  /// wrote since the last look.
  std::optional<Loc> find(const std::string& name) {
    if (auto loc = lookup_loaded(name)) return loc;
    refresh();
    return lookup(name);
  }

  /// Rebuilds the map from the directory: loose files first, then every
  /// pack in `seq` order, so a pack record overrides a loose file.
  void load() {
    for (int attempt = 0;; ++attempt) {
      packs_.clear();
      names_.clear();
      records_ = packed_ = packed_bytes_ = 0;
      std::vector<std::uint64_t> seqs;
      for_each_file(dir_, [&](std::string_view name) {
        if (is_tmp(name)) return;
        if (const auto seq = pack_seq(name)) {
          seqs.push_back(*seq);
        } else {
          names_.emplace(Name(name, &pool_), Loc{kLoose, 0, 0});
        }
      });
      std::sort(seqs.begin(), seqs.end());
      bool vanished = false;
      for (const std::uint64_t seq : seqs) {
        packs_.push_back(Pack(seq));
        if (!scan(packs_.size() - 1)) {
          vanished = true;  // a fold removed it: list again
          break;
        }
      }
      if (!vanished) break;
      if (attempt == 8) {
        throw BackendIoError("FileBackend: the packs of " + dir_.string() +
                             " keep vanishing while read");
      }
    }
    loaded_ = true;
  }

  /// Reads what other instances appended to known packs, and the packs
  /// they created, since the last look. A known pack that is gone means
  /// a fold replaced them all: the map is rebuilt.
  void refresh() {
    if (!loaded_) {
      load();
      return;
    }
    for (std::size_t i = 0; i < packs_.size(); ++i) {
      if (packs_[i].seq == out_seq_) continue;
      struct stat st {};
      if (::stat(pack_path(packs_[i].seq).c_str(), &st) != 0) {
        if (errno != ENOENT) {
          throw BackendIoError("FileBackend: cannot stat " +
                               pack_path(packs_[i].seq).string());
        }
        load();
        return;
      }
      if (static_cast<std::uint64_t>(st.st_size) > packs_[i].end &&
          !scan(i)) {
        load();
        return;
      }
    }
    // A new pack takes the seq above the highest present, and none is
    // reused, so the packs created since the last look follow max_seq().
    for (;;) {
      packs_.push_back(Pack(max_seq() + 1));
      if (!scan(packs_.size() - 1)) {
        packs_.pop_back();
        return;
      }
    }
  }

  /// Parses pack `i` from where the last scan stopped; false when its file
  /// does not exist.
  bool scan(std::size_t i) {
    const bool own = packs_[i].seq == out_seq_;
    const ReadFd fd = own ? ReadFd::borrow(out_fd_)
                          : ReadFd(pack_path(packs_[i].seq));
    if (!fd.ok()) {
      if (fd.absent()) return false;
      throw BackendIoError("FileBackend: cannot open " +
                           pack_path(packs_[i].seq).string());
    }
    const auto size = fd.size();
    if (!size) {
      throw BackendIoError("FileBackend: cannot stat " +
                           pack_path(packs_[i].seq).string());
    }
    ScanWindow w(fd.fd(), *size);
    Pack& k = packs_[i];
    std::uint64_t pos = k.end;
    k.torn = false;
    while (pos < *size) {
      const Byte* h = *size - pos < kHeader ? nullptr : w.at(pos, kHeader);
      if (h == nullptr) {
        k.torn = true;
        break;
      }
      const auto r = decode_header(h);
      if (!r) {
        const std::uint64_t next = resync(w, pos + 1, *size);
        k.damage.emplace_back(pos, next - pos);
        pos = next;
        continue;
      }
      const std::uint64_t body = *size - pos - kHeader;
      if (r->name_len > body || r->payload_len > body - r->name_len) {
        k.torn = true;
        break;
      }
      const std::uint64_t end = pos + kHeader + r->name_len + r->payload_len;
      const Byte* name = w.at(pos + kHeader, r->name_len);
      if (name == nullptr) {
        k.torn = true;
        break;
      }
      if (crc32c(0, ByteSpan(name, r->name_len)) != r->name_crc) {
        k.damage.emplace_back(pos, end - pos);
        pos = end;
        continue;
      }
      apply(std::string_view(reinterpret_cast<const char*>(name), r->name_len),
            r->kind, static_cast<std::uint32_t>(i),
            pos + kHeader + r->name_len, r->payload_len);
      pos = end;
    }
    k.end = pos;
    return true;
  }

  /// The first offset in [from, size) where a header passes its check;
  /// `size` when none does.
  static std::uint64_t resync(ScanWindow& w, std::uint64_t from,
                              std::uint64_t size) {
    for (std::uint64_t at = from; at + kHeader <= size; ++at) {
      const Byte* h = w.at(at, kHeader);
      if (h == nullptr) break;
      if (load_le<std::uint32_t>(h) == kPackMagic && decode_header(h)) {
        return at;
      }
    }
    return size;
  }

  void apply(std::string_view name, Byte kind, std::uint32_t pack,
             std::uint64_t offset, std::uint64_t length) {
    ++records_;
    auto it = names_.find(name);
    if (kind == kTombstone) {
      if (it == names_.end()) return;
      forget(it->second);
      names_.erase(it);
      return;
    }
    if (it == names_.end()) {
      it = names_.emplace(Name(name, &pool_), Loc{}).first;
    } else {
      forget(it->second);
    }
    it->second = Loc{pack, offset, length};
    ++packed_;
    packed_bytes_ += length;
  }

  void forget(const Loc& loc) {
    if (loc.pack == kLoose) return;
    --packed_;
    packed_bytes_ -= loc.length;
  }

  /// Creates this instance's pack, one above the highest present.
  void open_out() {
    refresh();
    for (;;) {
      const std::uint64_t seq = max_seq() + 1;
      const int fd = ::open(pack_path(seq).c_str(),
                            O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
      if (fd >= 0) {
        out_fd_ = fd;
        out_seq_ = seq;
        packs_.push_back(Pack(seq));
        return;
      }
      if (errno != EEXIST) {
        throw BackendIoError("FileBackend: cannot create " +
                             pack_path(seq).string());
      }
      refresh();  // another instance took it: read it like any other
    }
  }

  void close_out() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    out_seq_ = 0;
  }

  std::size_t out_index() const {
    const auto it = std::lower_bound(
        packs_.begin(), packs_.end(), out_seq_,
        [](const Pack& k, std::uint64_t seq) { return k.seq < seq; });
    return static_cast<std::size_t>(it - packs_.begin());
  }

  /// Appends one record to this instance's pack. A failed write truncates
  /// the pack back to the record's start; when that fails too, the next
  /// record starts a new pack, so nothing follows a torn tail.
  void write_record(Byte kind, const std::string& name, ByteSpan payload) {
    if (name.empty() || name.size() > UINT16_MAX) {
      throw BackendIoError("FileBackend: object name of " +
                           std::to_string(name.size()) +
                           " bytes cannot be packed");
    }
    if (!loaded_) load();
    if (out_seq_ == 0) open_out();
    const std::size_t i = out_index();
    const std::uint64_t at = packs_[i].end;
    if (!write_record_at(out_fd_, at, kind, name, payload)) {
      const std::string why = std::strerror(errno);
      const fs::path path = pack_path(out_seq_);
      if (::ftruncate(out_fd_, static_cast<off_t>(at)) != 0) close_out();
      throw BackendIoError("FileBackend: append to " + path.string() +
                           " failed: " + why);
    }
    packs_[i].end = at + kHeader + name.size() + payload.size();
    apply(name, kind, static_cast<std::uint32_t>(i),
          at + kHeader + name.size(), payload.size());
  }

  /// Reads [offset, offset + length) of the object at `loc`, to its end
  /// when `length` is nullopt; no bytes when the range exceeds it.
  Read read_loc(std::string_view name, const Loc& loc, std::uint64_t offset,
                std::optional<std::uint64_t> length) const {
    const bool loose = loc.pack == kLoose;
    const bool own = !loose && packs_[loc.pack].seq == out_seq_;
    const ReadFd fd = own     ? ReadFd::borrow(out_fd_)
                      : loose ? ReadFd(dir_ / name)
                              : ReadFd(pack_path(packs_[loc.pack].seq));
    if (!fd.ok()) return Read{fd.absent(), std::nullopt};
    std::uint64_t size = loc.length;
    if (loose) {
      const auto s = fd.size();
      if (!s) return {};
      size = *s;
    }
    // Checked as two comparisons: `offset + length` can wrap u64.
    if (offset > size) return {};
    const std::uint64_t n = length.value_or(size - offset);
    if (n > size - offset) return {};
    ByteVec out(static_cast<std::size_t>(n));
    if (!fd.read_at((loose ? 0 : loc.offset) + offset, out)) return {};
    return Read{false, std::move(out)};
  }

  /// Saves the bytes of a damaged region under quarantine/<ns>/.
  void quarantine_region(std::uint64_t seq, std::uint64_t offset,
                         std::uint64_t length) const {
    const ReadFd fd(pack_path(seq));
    ByteVec bytes(static_cast<std::size_t>(length));
    if (!fd.ok() || !fd.read_at(offset, bytes)) {
      throw BackendIoError("FileBackend: cannot read damage in " +
                           pack_path(seq).string());
    }
    fs::create_directories(quarantine_);
    write_file_atomically(
        quarantine_ / (pack_file(seq) + "@" + std::to_string(offset)), bytes);
  }

  /// Writes every live object, in name order, to pack `seq` through a
  /// temp file renamed into place.
  void write_fold_pack(std::uint64_t seq) const {
    std::vector<const Names::value_type*> live;
    live.reserve(names_.size());
    for (const auto& entry : names_) live.push_back(&entry);
    std::sort(live.begin(), live.end(),
              [](const Names::value_type* a, const Names::value_type* b) {
                return a->first < b->first;
              });
    const fs::path path = pack_path(seq);
    const fs::path tmp = path.string() + std::string(kTmpSuffix);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0) {
      throw BackendIoError("FileBackend: cannot create " + tmp.string());
    }
    std::string failed;
    std::uint64_t at = 0;
    for (const auto* entry : live) {
      const std::string_view name = entry->first;
      const Read r = read_loc(name, entry->second, 0, std::nullopt);
      if (!r.bytes) {
        failed = "cannot read " + std::string(name);
        break;
      }
      if (!write_record_at(fd, at, kPut, name, *r.bytes)) {
        failed = std::string("write failed: ") + std::strerror(errno);
        break;
      }
      at += kHeader + name.size() + r.bytes->size();
    }
    if (::close(fd) != 0 && failed.empty()) failed = "close failed";
    if (failed.empty() && ::rename(tmp.c_str(), path.c_str()) != 0) {
      failed = "rename failed";
    }
    if (!failed.empty()) {
      ::unlink(tmp.c_str());
      throw BackendIoError("FileBackend: folding " + dir_.string() + ": " +
                           failed);
    }
  }

  const fs::path dir_;
  const fs::path quarantine_;
  bool loaded_ = false;
  std::vector<Pack> packs_;  ///< `seq` order
  /// Names and map nodes come from a pool of large blocks, so the map's
  /// small allocations do not interleave with the ingest's large buffers
  /// in the heap.
  std::pmr::unsynchronized_pool_resource pool_;
  Names names_{&pool_};
  std::uint64_t records_ = 0;       ///< puts and tombstones read or written
  std::uint64_t packed_ = 0;        ///< names whose record is in a pack
  std::uint64_t packed_bytes_ = 0;  ///< their payload bytes
  std::uint64_t out_seq_ = 0;       ///< this instance's pack; 0 before one
  int out_fd_ = -1;
};

FileBackend::FileBackend(fs::path root) : root_(std::move(root)) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    fs::create_directories(root_ / ns_name(ns));
    if (ns_layout(ns) == NsLayout::kPacked) {
      packs_[i] = std::make_unique<Packs>(root_ / ns_name(ns),
                                          root_ / "quarantine" / ns_name(ns));
    }
  }
}

FileBackend::~FileBackend() = default;
FileBackend::FileBackend(FileBackend&&) noexcept = default;
FileBackend& FileBackend::operator=(FileBackend&&) noexcept = default;

FileBackend::Packs* FileBackend::packs(Ns ns) const {
  return packs_[static_cast<int>(ns)].get();
}

std::vector<LayoutDamage> FileBackend::sweep_temps() {
  // Orphaned temp files are debris from an interrupted atomic put or fold:
  // the rename never happened, so the old object (if any) is still intact.
  // Their names alone mark them, so the sweep stats nothing.
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const fs::path dir = root_ / ns_name(static_cast<Ns>(i));
    std::vector<std::string> stale_tmps;
    for_each_file(dir, [&](std::string_view name) {
      if (is_tmp(name)) stale_tmps.emplace_back(name);
    });
    for (const auto& tmp : stale_tmps) fs::remove(dir / tmp);
  }
  std::vector<LayoutDamage> quarantined;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    if (Packs* p = packs_[i].get()) {
      const std::lock_guard<std::mutex> lock(p->mu);
      p->fold(static_cast<Ns>(i), quarantined);
    }
  }
  return quarantined;
}

fs::path FileBackend::path_for(Ns ns, const std::string& name) const {
  return root_ / ns_name(ns) / name;
}

void write_file_atomically(const fs::path& p, ByteSpan data) {
  const fs::path tmp = p.string() + std::string(kTmpSuffix);
  iovec iov{const_cast<Byte*>(data.data()), data.size()};
  std::error_code ec;
  try {
    write_to_end(tmp, O_TRUNC, std::span<iovec>(&iov, 1));
  } catch (...) {
    fs::remove(tmp, ec);
    throw;
  }
  fs::rename(tmp, p, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw BackendIoError("FileBackend: rename failed for " + p.string());
  }
}

void FileBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    p->put(name, data);
    return;
  }
  write_file_atomically(path_for(ns, name), data);
}

void FileBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  if (Packs* p = packs(ns)) {
    // Packed objects are put whole; an append replaces the object with
    // its extension.
    const std::lock_guard<std::mutex> lock(p->mu);
    ByteVec whole = p->read(name, 0, std::nullopt).value_or(ByteVec{});
    mhd::append(whole, data);
    p->put(name, whole);
    return;
  }
  append_all(ns, name, std::span<const ByteSpan>(&data, 1));
}

void FileBackend::append_all(Ns ns, const std::string& name,
                             std::span<const ByteSpan> pieces,
                             std::size_t* landed) {
  if (packs(ns) != nullptr || pieces.empty()) {
    StorageBackend::append_all(ns, name, pieces, landed);
    return;
  }
  // One open and one vectored write at the end of the file for the whole
  // batch. A failed write may have landed a prefix; the framing layer
  // makes the partial tail detectable.
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (const ByteSpan piece : pieces) {
    iov.push_back({const_cast<Byte*>(piece.data()), piece.size()});
  }
  const auto count_landed = [&] {
    if (landed == nullptr) return;
    *landed = static_cast<std::size_t>(
        std::find_if(iov.begin(), iov.end(),
                     [](const iovec& v) { return v.iov_len != 0; }) -
        iov.begin());
  };
  try {
    write_to_end(path_for(ns, name), 0, iov);
  } catch (...) {
    count_landed();
    throw;
  }
  count_landed();
}

std::optional<ByteVec> FileBackend::get(Ns ns, const std::string& name) const {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->read(name, 0, std::nullopt);
  }
  const ReadFd fd(path_for(ns, name));
  if (!fd.ok()) return std::nullopt;
  const auto size = fd.size();
  if (!size) return std::nullopt;
  ByteVec out(static_cast<std::size_t>(*size));
  if (!fd.read_at(0, out)) return std::nullopt;
  return out;
}

std::optional<ByteVec> FileBackend::get_range(Ns ns, const std::string& name,
                                              std::uint64_t offset,
                                              std::uint64_t length) const {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->read(name, offset, length);
  }
  const ReadFd fd(path_for(ns, name));
  if (!fd.ok()) return std::nullopt;
  const auto size = fd.size();
  // Checked as two comparisons: `offset + length` can wrap u64. The size
  // check also keeps a bogus length from sizing the buffer.
  if (!size || offset > *size || length > *size - offset) return std::nullopt;
  ByteVec out(static_cast<std::size_t>(length));
  if (!fd.read_at(offset, out)) return std::nullopt;
  return out;
}

bool FileBackend::exists(Ns ns, const std::string& name) const {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->exists(name);
  }
  return fs::exists(path_for(ns, name));
}

bool FileBackend::remove(Ns ns, const std::string& name) {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->remove(name);
  }
  return fs::remove(path_for(ns, name));
}

std::uint64_t FileBackend::object_count(Ns ns) const {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->count();
  }
  return list(ns).size();
}

std::uint64_t FileBackend::content_bytes(Ns ns) const {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->bytes();
  }
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(root_ / ns_name(ns))) {
    if (entry.is_regular_file() && !is_tmp(entry.path().filename().string())) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

std::vector<std::string> FileBackend::list(Ns ns) const {
  if (Packs* p = packs(ns)) {
    const std::lock_guard<std::mutex> lock(p->mu);
    return p->list();
  }
  std::vector<std::string> names;
  for_each_file(root_ / ns_name(ns), [&](std::string_view name) {
    if (!is_tmp(name)) names.emplace_back(name);
  });
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<LayoutDamage> FileBackend::layout_damage() const {
  std::vector<LayoutDamage> out;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    if (Packs* p = packs_[i].get()) {
      const std::lock_guard<std::mutex> lock(p->mu);
      p->add_damage(static_cast<Ns>(i), out);
    }
  }
  return out;
}

}  // namespace mhd
