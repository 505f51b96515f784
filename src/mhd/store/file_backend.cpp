#include "mhd/store/file_backend.h"

#include <algorithm>
#include <fstream>

#include "mhd/store/store_errors.h"

namespace mhd {

namespace fs = std::filesystem;

namespace {

/// Temp files from interrupted atomic puts carry this suffix; object names
/// are hex digests and can never collide with it.
constexpr const char* kTmpSuffix = ".tmp";

bool is_tmp(const fs::path& p) { return p.extension() == kTmpSuffix; }

fs::path framed_marker_path(const fs::path& root) { return root / "framed"; }

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

}  // namespace

FileBackend::FileBackend(fs::path root) : root_(std::move(root)) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    fs::create_directories(root_ / ns_name(ns));
    // Adopt pre-existing content (e.g. resuming a backup repository).
    // Orphaned temp files are debris from an interrupted atomic put: the
    // rename never happened, so the old object (if any) is still intact.
    std::vector<fs::path> stale_tmps;
    for (const auto& entry : fs::directory_iterator(root_ / ns_name(ns))) {
      if (!entry.is_regular_file()) continue;
      if (is_tmp(entry.path())) {
        stale_tmps.push_back(entry.path());
        continue;
      }
      ++counts_[i];
      bytes_[i] += entry.file_size();
    }
    for (const auto& tmp : stale_tmps) fs::remove(tmp);
  }
}

fs::path FileBackend::path_for(Ns ns, const std::string& name) const {
  return root_ / ns_name(ns) / name;
}

void FileBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  const fs::path p = path_for(ns, name);
  const fs::path tmp = p.string() + kTmpSuffix;
  const bool existed = fs::exists(p);
  const std::uint64_t old_size = existed ? fs::file_size(p) : 0;
  // Atomic replace: write the new bytes beside the object, then rename
  // over it. A crash mid-put leaves either the old object or the new one,
  // never a half-written mix; the stale .tmp is swept on reopen.
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
  const int i = static_cast<int>(ns);
  if (!existed) ++counts_[i];
  bytes_[i] += data.size();
  bytes_[i] -= old_size;
}

void FileBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  const fs::path p = path_for(ns, name);
  const bool existed = fs::exists(p);
  const std::uint64_t old_size = existed ? fs::file_size(p) : 0;
  try {
    write_all_or_throw(p, data, std::ios::app);
  } catch (...) {
    // A failed append may have landed a prefix; resync the counters from
    // the filesystem so accounting stays truthful, then surface the error
    // (the framing layer makes the partial tail detectable).
    const int i = static_cast<int>(ns);
    std::error_code ec;
    const bool exists_now = fs::exists(p, ec) && !ec;
    const std::uint64_t new_size = exists_now ? fs::file_size(p, ec) : 0;
    if (!existed && exists_now) ++counts_[i];
    bytes_[i] += new_size;
    bytes_[i] -= old_size;
    throw;
  }
  const int i = static_cast<int>(ns);
  if (!existed) ++counts_[i];
  bytes_[i] += data.size();
}

std::optional<ByteVec> FileBackend::get(Ns ns, const std::string& name) const {
  const fs::path p = path_for(ns, name);
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = in.tellg();
  in.seekg(0);
  ByteVec out(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out.data()), size);
  if (!in) return std::nullopt;
  return out;
}

std::optional<ByteVec> FileBackend::get_range(Ns ns, const std::string& name,
                                              std::uint64_t offset,
                                              std::uint64_t length) const {
  const fs::path p = path_for(ns, name);
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
  // Checked as two comparisons: `offset + length` can wrap u64.
  if (offset > size || length > size - offset) return std::nullopt;
  in.seekg(static_cast<std::streamoff>(offset));
  ByteVec out(static_cast<std::size_t>(length));
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(length));
  if (!in) return std::nullopt;
  return out;
}

bool FileBackend::exists(Ns ns, const std::string& name) const {
  return fs::exists(path_for(ns, name));
}

bool FileBackend::remove(Ns ns, const std::string& name) {
  const fs::path p = path_for(ns, name);
  if (!fs::exists(p)) return false;
  const std::uint64_t size = fs::file_size(p);
  fs::remove(p);
  const int i = static_cast<int>(ns);
  --counts_[i];
  bytes_[i] -= size;
  return true;
}

std::uint64_t FileBackend::object_count(Ns ns) const {
  return counts_[static_cast<int>(ns)];
}

std::uint64_t FileBackend::content_bytes(Ns ns) const {
  return bytes_[static_cast<int>(ns)];
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

bool has_framed_marker(const fs::path& root) {
  std::error_code ec;
  return fs::exists(framed_marker_path(root), ec);
}

void write_framed_marker(const fs::path& root) {
  std::ofstream marker(framed_marker_path(root), std::ios::binary);
}

}  // namespace mhd
