#include "mhd/store/framed_backend.h"

#include <algorithm>
#include <ranges>

#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

bool is_stream(Ns ns) {
  return ns == Ns::kDiskChunk || ns == Ns::kContainer;
}

std::string table_key(Ns ns, const std::string& name) {
  std::string key(1, static_cast<char>(ns));
  key += name;
  return key;
}

}  // namespace

FramedBackend::FramedBackend(StorageBackend& inner)
    : inner_(inner),
      tables_(kTableCacheRecords, nullptr, kTableCacheRecords,
              [](const TablePtr& t) { return t->size(); }) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    for (const auto& name : inner_.list(ns)) {
      const auto framed = inner_.get(ns, name);
      if (!framed) continue;
      std::uint64_t logical = 0;
      if (is_stream(ns)) {
        logical = framing::scan_records(*framed).logical_bytes;
      } else if (const auto payload = framing::unseal_object(*framed)) {
        logical = payload->size();
      }
      sizes(ns)[name] = logical;
      bytes_[i] += logical;
    }
  }
}

void FramedBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  ByteVec framed;
  if (is_stream(ns)) {
    framed = framing::frame_record(data);
    mhd::append(framed, framing::seal_record(data.size()));
  } else {
    framed = framing::seal_object(data);
  }
  drop_table(ns, name);
  inner_.put(ns, name, framed);
  auto& size = sizes(ns)[name];
  bytes_[static_cast<int>(ns)] += data.size() - size;
  size = data.size();
}

void FramedBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  if (is_stream(ns)) {
    drop_table(ns, name);
    inner_.append(ns, name, framing::frame_record(data));
    sizes(ns)[name] += data.size();
    bytes_[static_cast<int>(ns)] += data.size();
    return;
  }
  // Sealed namespaces have no incremental framing; read-modify-write keeps
  // the (rare, test-only) append path correct.
  ByteVec combined;
  if (const auto framed = inner_.get(ns, name)) {
    combined = verified_get(ns, name, *framed);
  }
  mhd::append(combined, data);
  put(ns, name, combined);
}

ByteVec FramedBackend::verified_get(Ns ns, const std::string& name,
                                    const ByteVec& framed,
                                    bool keep_table) const {
  if (is_stream(ns)) {
    framing::StreamRead read = framing::read_stream(framed);
    if (!read.payload) {
      drop_table(ns, name);
      throw CorruptObjectError(
          ns, name,
          read.scan.corrupt ? "record CRC/structure mismatch"
                            : "torn or unsealed record stream");
    }
    if (keep_table) {
      auto table =
          std::make_shared<const RecordTable>(std::move(read.record_offsets));
      std::lock_guard<std::mutex> lock(tables_mu_);
      tables_.put(table_key(ns, name), std::move(table));
    }
    return std::move(*read.payload);
  }
  if (auto payload = framing::unseal_object(framed)) return *payload;
  throw CorruptObjectError(ns, name, "trailer CRC/structure mismatch");
}

FramedBackend::TablePtr FramedBackend::find_table(
    Ns ns, const std::string& name) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  const TablePtr* table = tables_.get(table_key(ns, name));
  return table != nullptr ? *table : nullptr;
}

void FramedBackend::drop_table(Ns ns, const std::string& name) const {
  if (!is_stream(ns)) return;
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_.erase(table_key(ns, name));
}

std::optional<ByteVec> FramedBackend::get(Ns ns,
                                          const std::string& name) const {
  const auto framed = inner_.get(ns, name);
  if (!framed) return std::nullopt;
  return verified_get(ns, name, *framed);
}

std::optional<ByteVec> FramedBackend::read_covering(
    Ns ns, const std::string& name, const RecordTable& table,
    std::uint64_t offset, std::uint64_t length) const {
  const std::size_t records = table.size() - 1;
  const auto logical_start = [&](std::size_t i) {
    return table[i] - i * framing::kHeaderBytes;
  };
  const std::uint64_t total = logical_start(records);
  if (offset > total || length > total - offset) return std::nullopt;

  // Records [first, last) overlap [offset, offset + length).
  const auto starts = std::views::iota(std::size_t{0}, records);
  const auto first_after = [&](std::uint64_t pos) {
    return static_cast<std::size_t>(
        std::ranges::upper_bound(starts, pos, {}, logical_start) -
        starts.begin());
  };
  const std::size_t first = length == 0 ? 0 : first_after(offset) - 1;
  const std::size_t last = length == 0 ? 0 : first_after(offset + length - 1);

  // One inner read of the covering records; each is checked before any
  // of its bytes is copied out.
  const std::uint64_t begin = table[first];
  const std::uint64_t span = table[last] - begin;
  const auto framed = inner_.get_range(ns, name, begin, span);
  if (!framed || framed->size() != span) return std::nullopt;
  ByteVec out;
  out.reserve(static_cast<std::size_t>(length));
  for (std::size_t i = first; i < last; ++i) {
    const auto payload = framing::record_payload(
        ByteSpan(*framed).subspan(table[i] - begin, table[i + 1] - table[i]));
    if (!payload) return std::nullopt;
    const std::uint64_t start = logical_start(i);
    const std::uint64_t from = std::max(offset, start) - start;
    const std::uint64_t to =
        std::min(offset + length, start + payload->size()) - start;
    mhd::append(out, payload->subspan(from, to - from));
  }
  return out;
}

std::optional<ByteVec> FramedBackend::get_range(Ns ns, const std::string& name,
                                                std::uint64_t offset,
                                                std::uint64_t length) const {
  if (is_stream(ns)) {
    if (const TablePtr table = find_table(ns, name)) {
      if (auto out = read_covering(ns, name, *table, offset, length)) {
        return out;
      }
      drop_table(ns, name);  // stale or damaged: the first-read path decides
    }
  }
  // First read: load and verify the whole object, and keep its table.
  const auto framed = inner_.get(ns, name);
  if (!framed) return std::nullopt;
  const ByteVec payload = verified_get(ns, name, *framed, /*keep_table=*/true);
  if (offset > payload.size() || length > payload.size() - offset) {
    return std::nullopt;
  }
  return ByteVec(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                 payload.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

bool FramedBackend::exists(Ns ns, const std::string& name) const {
  return inner_.exists(ns, name);
}

bool FramedBackend::remove(Ns ns, const std::string& name) {
  drop_table(ns, name);
  if (!inner_.remove(ns, name)) return false;
  auto& map = sizes(ns);
  if (const auto it = map.find(name); it != map.end()) {
    bytes_[static_cast<int>(ns)] -= it->second;
    map.erase(it);
  }
  return true;
}

std::uint64_t FramedBackend::object_count(Ns ns) const {
  return inner_.object_count(ns);
}

std::uint64_t FramedBackend::content_bytes(Ns ns) const {
  return bytes_[static_cast<int>(ns)];
}

std::vector<std::string> FramedBackend::list(Ns ns) const {
  return inner_.list(ns);
}

void FramedBackend::seal(Ns ns, const std::string& name) {
  if (!is_stream(ns)) return;  // sealed namespaces are sealed at put
  const auto& map = sizes(ns);
  const auto it = map.find(name);
  const std::uint64_t logical = it == map.end() ? 0 : it->second;
  drop_table(ns, name);
  inner_.append(ns, name, framing::seal_record(logical));
}

}  // namespace mhd
