// Self-verifying object framing — the byte-level formats that make every
// stored object checkable after a crash or bit flip.
//
// Two formats, chosen per namespace:
//
//  * Sealed objects (Hooks, Manifests, FileManifests — written atomically
//    via put): the payload followed by a 12-byte trailer
//        [magic "MTR1"][payload len u32][crc32c(payload) u32]
//    A whole-object read re-checks the CRC; any flipped bit or truncation
//    is detected. The trailer sits at the *end* so a torn write (prefix
//    persisted) never leaves a valid trailer behind.
//
//  * Record streams (DiskChunks — grown by append): each append becomes
//        [magic "MRC1"][payload len u32][crc32c(payload) u32] payload
//    and close() appends a seal record
//        [magic "MSL1"][8][crc32c(len_le64)] len_le64
//    whose payload is the total logical length. A torn tail (partial last
//    record, or a clean cut at a record boundary before the seal) is
//    detectable and *truncatable*: every valid record before the tear is
//    still usable, which is what fsck --repair exploits.
//
// All integers little-endian. CRC32C is the hardware-accelerated kernel
// family in util/crc32c.h.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd::framing {

constexpr std::uint32_t kRecordMagic = 0x3143524Du;   // "MRC1"
constexpr std::uint32_t kSealMagic = 0x314C534Du;     // "MSL1"
constexpr std::uint32_t kTrailerMagic = 0x3152544Du;  // "MTR1"

/// [magic u32][len u32][crc u32]
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kTrailerBytes = 12;
/// Physical size of a seal record (header + le64 logical length).
constexpr std::size_t kSealBytes = kHeaderBytes + 8;

// --- Sealed objects ------------------------------------------------------

/// payload + trailer. Payloads are metadata objects; sizes must fit u32.
ByteVec seal_object(ByteSpan payload);

/// Verifies the trailer; nullopt when the framing is missing, torn, or the
/// CRC mismatches (the caller decides which typed error to raise).
std::optional<ByteVec> unseal_object(ByteSpan framed);

// --- Record streams ------------------------------------------------------

/// One framed append: header + payload.
ByteVec frame_record(ByteSpan payload);
/// frame_record(payload) appended to `out`.
void append_record(ByteVec& out, ByteSpan payload);

/// The end-of-stream seal carrying the total logical length.
ByteVec seal_record(std::uint64_t logical_length);

/// Result of walking a record stream front to back, verifying every CRC.
struct RecordScan {
  std::uint64_t logical_bytes = 0;  ///< payload bytes across valid records
  std::uint64_t valid_prefix = 0;   ///< physical bytes of intact records
  std::size_t records = 0;          ///< valid data records seen
  bool sealed = false;  ///< a valid, length-matching seal terminates it
  bool corrupt = false;  ///< bad magic / CRC mismatch / bytes after seal
  bool torn = false;     ///< ends mid-record or without a seal
};

/// Walks `framed`, stopping at the first defect. A clean stream has
/// sealed && !corrupt && !torn. `valid_prefix`/`logical_bytes` describe
/// the salvageable prefix even when the tail is torn — fsck truncates to
/// valid_prefix and appends seal_record(logical_bytes) to repair. When
/// `record_offsets` is given, the header offset of every valid data
/// record is appended to it.
RecordScan scan_records(ByteSpan framed,
                        std::vector<std::uint64_t>* record_offsets = nullptr);

/// A whole-stream read that checks every CRC once: the scan, and for a
/// clean stream its payload and record layout.
struct StreamRead {
  RecordScan scan;
  /// Concatenated payload; set only for a clean, sealed stream.
  std::optional<ByteVec> payload;
  /// With `payload`: the physical offset of each data record's header,
  /// then of the seal. Record i starts at logical offset
  /// record_offsets[i] - i * kHeaderBytes. Empty otherwise.
  std::vector<std::uint64_t> record_offsets;
};

StreamRead read_stream(ByteSpan framed);

/// Payload of one data record, `record` being exactly its header and
/// payload; nullopt when the magic, the length or the CRC do not match.
std::optional<ByteSpan> record_payload(ByteSpan record);

}  // namespace mhd::framing
