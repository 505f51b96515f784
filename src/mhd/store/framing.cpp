#include "mhd/store/framing.h"

#include <limits>
#include <stdexcept>

#include "mhd/util/crc32c.h"

namespace mhd::framing {

namespace {

void append_header(ByteVec& out, std::uint32_t magic, ByteSpan payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("framing: payload exceeds u32 length field");
  }
  append_le(out, magic);
  append_le(out, static_cast<std::uint32_t>(payload.size()));
  append_le(out, crc32c(0, payload));
}

}  // namespace

ByteVec seal_object(ByteSpan payload) {
  ByteVec out = to_vec(payload);
  append_header(out, kTrailerMagic, payload);  // trailer shares the layout
  return out;
}

std::optional<ByteVec> unseal_object(ByteSpan framed) {
  if (framed.size() < kTrailerBytes) return std::nullopt;
  const Byte* t = framed.data() + framed.size() - kTrailerBytes;
  if (load_le<std::uint32_t>(t) != kTrailerMagic) return std::nullopt;
  const std::uint32_t len = load_le<std::uint32_t>(t + 4);
  if (len != framed.size() - kTrailerBytes) return std::nullopt;
  const ByteSpan payload = framed.first(len);
  if (load_le<std::uint32_t>(t + 8) != crc32c(0, payload)) return std::nullopt;
  return to_vec(payload);
}

ByteVec frame_record(ByteSpan payload) {
  ByteVec out;
  out.reserve(kHeaderBytes + payload.size());
  append_record(out, payload);
  return out;
}

void append_record(ByteVec& out, ByteSpan payload) {
  append_header(out, kRecordMagic, payload);
  append(out, payload);
}

ByteVec seal_record(std::uint64_t logical_length) {
  ByteVec len_le;
  append_le(len_le, logical_length);
  ByteVec out;
  out.reserve(kSealBytes);
  append_header(out, kSealMagic, len_le);
  append(out, len_le);
  return out;
}

RecordScan scan_records(ByteSpan framed,
                        std::vector<std::uint64_t>* record_offsets) {
  RecordScan scan;
  std::size_t pos = 0;
  while (pos + kHeaderBytes <= framed.size()) {
    const Byte* h = framed.data() + pos;
    const std::uint32_t magic = load_le<std::uint32_t>(h);
    if (magic != kRecordMagic && magic != kSealMagic) {
      scan.corrupt = true;
      return scan;
    }
    const std::uint32_t len = load_le<std::uint32_t>(h + 4);
    if (pos + kHeaderBytes + len > framed.size()) {
      // Header intact but the payload runs off the end: a torn last write.
      scan.torn = true;
      return scan;
    }
    const ByteSpan payload = framed.subspan(pos + kHeaderBytes, len);
    if (load_le<std::uint32_t>(h + 8) != crc32c(0, payload)) {
      scan.corrupt = true;
      return scan;
    }
    if (magic == kSealMagic) {
      if (len != 8 ||
          load_le<std::uint64_t>(payload.data()) != scan.logical_bytes) {
        scan.corrupt = true;  // seal disagrees with the records before it
        return scan;
      }
      scan.sealed = true;
      pos += kHeaderBytes + len;
      scan.valid_prefix = pos;
      if (pos != framed.size()) scan.corrupt = true;  // bytes after the seal
      return scan;
    }
    if (record_offsets != nullptr) record_offsets->push_back(pos);
    pos += kHeaderBytes + len;
    scan.logical_bytes += len;
    scan.valid_prefix = pos;
    ++scan.records;
  }
  // Ran out of bytes without a seal: a cut mid-header, or a clean cut at a
  // record boundary (which the seal record exists to catch).
  scan.torn = true;
  return scan;
}

StreamRead read_stream(ByteSpan framed) {
  StreamRead read;
  read.scan = scan_records(framed, &read.record_offsets);
  if (!read.scan.sealed || read.scan.corrupt || read.scan.torn) {
    read.record_offsets.clear();
    return read;
  }
  read.record_offsets.push_back(read.scan.valid_prefix - kSealBytes);
  // Copy out by the offsets just verified: no header is parsed twice and
  // the payload is allocated at its exact size.
  ByteVec payload;
  payload.reserve(read.scan.logical_bytes);
  for (std::size_t i = 0; i + 1 < read.record_offsets.size(); ++i) {
    const std::uint64_t at = read.record_offsets[i] + kHeaderBytes;
    append(payload, framed.subspan(at, read.record_offsets[i + 1] - at));
  }
  read.payload = std::move(payload);
  return read;
}

std::optional<ByteSpan> record_payload(ByteSpan record) {
  if (record.size() < kHeaderBytes) return std::nullopt;
  const ByteSpan payload = record.subspan(kHeaderBytes);
  if (load_le<std::uint32_t>(record.data()) != kRecordMagic ||
      load_le<std::uint32_t>(record.data() + 4) != payload.size() ||
      load_le<std::uint32_t>(record.data() + 8) != crc32c(0, payload)) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace mhd::framing
