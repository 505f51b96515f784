#include "mhd/store/file_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>

#include "mhd/store/store_errors.h"

namespace mhd {

namespace fs = std::filesystem;

namespace {

/// Temp files from interrupted atomic puts carry this suffix; object names
/// are hex digests and can never collide with it.
constexpr const char* kTmpSuffix = ".tmp";

bool is_tmp(const fs::path& p) { return p.extension() == kTmpSuffix; }

/// Writes `data` and verifies both the write and the close took: a short
/// write (ENOSPC, quota) must surface as an error, never as a silently
/// truncated object.
void write_all_or_throw(const fs::path& p, ByteSpan data,
                        std::ios::openmode mode) {
  std::ofstream out(p, std::ios::binary | mode);
  if (!out) throw BackendIoError("FileBackend: cannot open " + p.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw BackendIoError("FileBackend: short write to " + p.string());
  out.close();
  if (out.fail()) {
    throw BackendIoError("FileBackend: close failed for " + p.string());
  }
}

/// A read-only descriptor, closed on every path out of its scope.
class ReadFd {
 public:
  explicit ReadFd(const fs::path& p)
      : fd_(::open(p.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReadFd(const ReadFd&) = delete;
  ReadFd& operator=(const ReadFd&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// The file's size; nullopt when fstat fails.
  std::optional<std::uint64_t> size() const {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) return std::nullopt;
    return static_cast<std::uint64_t>(st.st_size);
  }

  /// Fills `out` from `offset`, retrying EINTR. False on an error or a
  /// short read (the file ends first).
  bool read_at(std::uint64_t offset, MutByteSpan out) const {
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                                static_cast<off_t>(offset + done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_;
};

}  // namespace

FileBackend::FileBackend(fs::path root) : root_(std::move(root)) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    fs::create_directories(root_ / ns_name(static_cast<Ns>(i)));
  }
}

void FileBackend::sweep_temps() {
  // Orphaned temp files are debris from an interrupted atomic put: the
  // rename never happened, so the old object (if any) is still intact.
  // Their names alone mark them, so the sweep stats nothing.
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    std::vector<fs::path> stale_tmps;
    for (const auto& entry :
         fs::directory_iterator(root_ / ns_name(static_cast<Ns>(i)))) {
      if (is_tmp(entry.path())) stale_tmps.push_back(entry.path());
    }
    for (const auto& tmp : stale_tmps) fs::remove(tmp);
  }
}

fs::path FileBackend::path_for(Ns ns, const std::string& name) const {
  return root_ / ns_name(ns) / name;
}

void write_file_atomically(const fs::path& p, ByteSpan data) {
  const fs::path tmp = p.string() + kTmpSuffix;
  try {
    write_all_or_throw(tmp, data, std::ios::trunc);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  std::error_code ec;
  fs::rename(tmp, p, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw BackendIoError("FileBackend: rename failed for " + p.string());
  }
}

void FileBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  write_file_atomically(path_for(ns, name), data);
}

void FileBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  // A failed append may have landed a prefix; the framing layer makes the
  // partial tail detectable.
  write_all_or_throw(path_for(ns, name), data, std::ios::app);
}

std::optional<ByteVec> FileBackend::get(Ns ns, const std::string& name) const {
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
  return fs::exists(path_for(ns, name));
}

bool FileBackend::remove(Ns ns, const std::string& name) {
  return fs::remove(path_for(ns, name));
}

std::uint64_t FileBackend::object_count(Ns ns) const {
  return list(ns).size();
}

std::uint64_t FileBackend::content_bytes(Ns ns) const {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(root_ / ns_name(ns))) {
    if (entry.is_regular_file() && !is_tmp(entry.path())) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

std::vector<std::string> FileBackend::list(Ns ns) const {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root_ / ns_name(ns))) {
    if (!entry.is_regular_file() || is_tmp(entry.path())) continue;
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mhd
