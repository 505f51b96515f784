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
