#include "mhd/store/framed_backend.h"

#include <algorithm>
#include <cstring>
#include <ranges>

#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

bool is_stream(Ns ns) { return ns_layout(ns) == NsLayout::kStream; }

std::string table_key(Ns ns, const std::string& name) {
  std::string key(1, static_cast<char>(ns));
  key += name;
  return key;
}

}  // namespace

FramedBackend::FramedBackend(StorageBackend& inner)
    : inner_(inner),
      tables_(kTableCacheRecords, nullptr, kTableCacheRecords,
              [](const TablePtr& t) { return t->size(); }) {}

std::uint64_t FramedBackend::stored_size(Ns ns, const std::string& name) const {
  const auto framed = inner_.get(ns, name);
  if (!framed) return 0;
  if (is_stream(ns)) return framing::scan_records(*framed).logical_bytes;
  const auto payload = framing::unseal_object(*framed);
  return payload ? payload->size() : 0;
}

std::uint64_t& FramedBackend::known_size(Ns ns, const std::string& name,
                                         bool* created) const {
  const int i = static_cast<int>(ns);
  auto& map = sizes_[i];
  if (const auto it = map.find(name); it != map.end()) return it->second;
  const bool stored = !sized_[i] && inner_.exists(ns, name);
  // Entered only once sized: a read that throws leaves no wrong entry.
  const std::uint64_t size = stored ? stored_size(ns, name) : 0;
  if (created != nullptr) *created = !stored;
  bytes_[i] += size;
  return map.emplace(name, size).first->second;
}

void FramedBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  ByteVec framed;
  if (is_stream(ns)) {
    framed = framing::frame_record(data);
    mhd::append(framed, framing::seal_record(data.size()));
  } else {
    framed = framing::seal_object(data);
  }
  std::lock_guard<std::mutex> lock(sizes_mu_);
  forget_tables(ns, name);
  inner_.put(ns, name, framed);
  auto& size = sizes_[static_cast<int>(ns)][name];
  bytes_[static_cast<int>(ns)] += data.size() - size;
  size = data.size();
}

void FramedBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  if (is_stream(ns)) {
    append_all(ns, name, std::span<const ByteSpan>(&data, 1));
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

std::size_t FramedBackend::frame_batch(std::span<const ByteSpan> pieces,
                                       std::size_t first) {
  if (batch_.capacity() < kBatchBytes) batch_.reserve(kBatchBytes);
  batch_.clear();
  std::size_t end = first;
  do {
    framing::append_record(batch_, pieces[end++]);
  } while (end < pieces.size() &&
           batch_.size() + framing::kHeaderBytes + pieces[end].size() <=
               kBatchBytes);
  records_.clear();
  std::size_t at = 0;
  for (std::size_t i = first; i < end; ++i) {
    const std::size_t n = framing::kHeaderBytes + pieces[i].size();
    records_.push_back(ByteSpan(batch_).subspan(at, n));
    at += n;
  }
  return end;
}

void FramedBackend::append_all(Ns ns, const std::string& name,
                               std::span<const ByteSpan> pieces,
                               std::size_t* landed) {
  if (!is_stream(ns) || pieces.empty()) {
    StorageBackend::append_all(ns, name, pieces, landed);
    return;
  }
  std::lock_guard<std::mutex> lock(sizes_mu_);
  bool created = false;
  std::uint64_t& size = known_size(ns, name, &created);
  auto building = building_.end();
  if (ns == Ns::kDiskChunk) {
    building = created ? building_.insert_or_assign(name, RecordTable{}).first
                       : building_.find(name);
  }
  if (building == building_.end()) drop_table(ns, name);
  // Counts pieces [done, end) as appended: their header offsets in the
  // table being built, then their logical bytes.
  std::size_t done = 0;
  const auto count = [&](std::size_t end) {
    for (; done < end; ++done) {
      if (building != building_.end()) {
        RecordTable& table = building->second;
        table.push_back(size + table.size() * framing::kHeaderBytes);
      }
      size += pieces[done].size();
      bytes_[static_cast<int>(ns)] += pieces[done].size();
    }
  };
  std::size_t accepted = 0;  // by the inner call in flight
  try {
    while (done < pieces.size()) {
      accepted = 0;
      const std::size_t end = frame_batch(pieces, done);
      inner_.append_all(ns, name, records_, &accepted);
      count(end);
    }
  } catch (...) {
    count(done + accepted);
    if (building != building_.end()) building_.erase(building);
    if (landed != nullptr) *landed = done;
    if (batch_.capacity() > kBatchBytes) batch_ = ByteVec();
    throw;
  }
  if (landed != nullptr) *landed = done;
  if (batch_.capacity() > kBatchBytes) batch_ = ByteVec();
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

void FramedBackend::forget_tables(Ns ns, const std::string& name) {
  if (ns == Ns::kDiskChunk) building_.erase(name);
  drop_table(ns, name);
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

  // One inner read of the covering records. Each is checked where the read
  // left it, then its requested bytes slide to the front of the same
  // buffer: they only move down, over records already checked.
  const std::uint64_t begin = table[first];
  const std::uint64_t span = table[last] - begin;
  auto framed = inner_.get_range(ns, name, begin, span);
  if (!framed || framed->size() != span) return std::nullopt;
  std::size_t kept = 0;
  for (std::size_t i = first; i < last; ++i) {
    const auto payload = framing::record_payload(
        ByteSpan(*framed).subspan(table[i] - begin, table[i + 1] - table[i]));
    if (!payload) return std::nullopt;
    const std::uint64_t start = logical_start(i);
    const std::uint64_t from = std::max(offset, start) - start;
    const std::uint64_t to =
        std::min(offset + length, start + payload->size()) - start;
    std::memmove(framed->data() + kept, payload->data() + from, to - from);
    kept += to - from;
  }
  framed->resize(kept);
  return framed;
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
  ByteVec payload = verified_get(ns, name, *framed, /*keep_table=*/true);
  if (offset > payload.size() || length > payload.size() - offset) {
    return std::nullopt;
  }
  payload.erase(payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(offset));
  payload.resize(static_cast<std::size_t>(length));
  return payload;
}

bool FramedBackend::exists(Ns ns, const std::string& name) const {
  return inner_.exists(ns, name);
}

bool FramedBackend::remove(Ns ns, const std::string& name) {
  std::lock_guard<std::mutex> lock(sizes_mu_);
  forget_tables(ns, name);
  if (!inner_.remove(ns, name)) return false;
  auto& map = sizes_[static_cast<int>(ns)];
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
  const int i = static_cast<int>(ns);
  std::lock_guard<std::mutex> lock(sizes_mu_);
  if (!sized_[i]) {
    for (const auto& name : inner_.list(ns)) known_size(ns, name);
    sized_[i] = true;
  }
  return bytes_[i];
}

std::vector<std::string> FramedBackend::list(Ns ns) const {
  return inner_.list(ns);
}

void FramedBackend::seal(Ns ns, const std::string& name) {
  if (!is_stream(ns)) return;  // sealed namespaces are sealed at put
  std::lock_guard<std::mutex> lock(sizes_mu_);
  // Taken out first: a seal that throws leaves no table being built.
  auto building = ns == Ns::kDiskChunk ? building_.extract(name)
                                       : decltype(building_)::node_type{};
  if (building.empty()) drop_table(ns, name);
  const std::uint64_t size = known_size(ns, name);
  const ByteVec seal = framing::seal_record(size);
  inner_.append(ns, name, seal);
  if (building.empty()) return;

  // The seal read back where the table puts it shows that every append
  // before it landed whole: a torn one would have left it lower.
  RecordTable& offsets = building.mapped();
  const std::uint64_t at = size + offsets.size() * framing::kHeaderBytes;
  std::optional<ByteVec> landed;
  try {
    landed = inner_.get_range(ns, name, at, seal.size());
  } catch (const StoreError&) {
    return;  // the seal is written; the first read builds the table
  }
  if (landed != seal) return;
  offsets.push_back(at);
  auto table = std::make_shared<const RecordTable>(std::move(offsets));
  std::lock_guard<std::mutex> tables_lock(tables_mu_);
  tables_.put(table_key(ns, name), std::move(table));
}

}  // namespace mhd
