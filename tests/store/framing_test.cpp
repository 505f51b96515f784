// Framing formats and the FramedBackend decorator: sealed objects, record
// streams, torn/corrupt classification, logical accounting, the
// absent-vs-corrupt error split the whole recovery path depends on, and
// the range-read contract of the record table.
#include "mhd/store/framing.h"

#include <gtest/gtest.h>

#include "counting_backend.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

ByteVec bytes_of(const std::string& s) { return to_vec(as_bytes(s)); }

TEST(Framing, SealedObjectRoundTrip) {
  const ByteVec payload = bytes_of("hello manifest");
  const ByteVec framed = framing::seal_object(payload);
  EXPECT_EQ(framed.size(), payload.size() + framing::kTrailerBytes);
  const auto back = framing::unseal_object(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);

  // Empty payload is a valid sealed object.
  const ByteVec empty = framing::seal_object({});
  EXPECT_EQ(empty.size(), framing::kTrailerBytes);
  ASSERT_TRUE(framing::unseal_object(empty).has_value());
  EXPECT_TRUE(framing::unseal_object(empty)->empty());
}

TEST(Framing, SealedObjectDetectsEveryByteFlip) {
  const ByteVec framed = framing::seal_object(bytes_of("sensitive"));
  for (std::size_t i = 0; i < framed.size(); ++i) {
    ByteVec bad = framed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(framing::unseal_object(bad).has_value()) << "byte " << i;
  }
}

TEST(Framing, SealedObjectDetectsTruncationAndGarbage) {
  const ByteVec framed = framing::seal_object(bytes_of("0123456789"));
  for (std::size_t keep = 0; keep < framed.size(); ++keep) {
    const ByteVec torn(framed.begin(),
                       framed.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(framing::unseal_object(torn).has_value()) << "keep " << keep;
  }
  EXPECT_FALSE(framing::unseal_object(bytes_of("raw unframed")).has_value());
}

TEST(Framing, RecordStreamRoundTrip) {
  ByteVec stream;
  ByteVec logical;
  std::vector<std::uint64_t> offsets;
  for (const std::string part : {"first", "", "second-longer-part", "x"}) {
    offsets.push_back(stream.size());
    mhd::append(stream, framing::frame_record(as_bytes(part)));
    mhd::append(logical, as_bytes(part));
  }
  offsets.push_back(stream.size());  // the seal
  mhd::append(stream, framing::seal_record(logical.size()));

  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.sealed);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records, 4u);
  EXPECT_EQ(scan.logical_bytes, logical.size());
  EXPECT_EQ(scan.valid_prefix, stream.size());

  const framing::StreamRead read = framing::read_stream(stream);
  ASSERT_TRUE(read.payload.has_value());
  EXPECT_EQ(*read.payload, logical);
  EXPECT_EQ(read.record_offsets, offsets);
}

TEST(Framing, UnsealedStreamIsTorn) {
  // A stream cut exactly at a record boundary, seal never written: the
  // whole point of the seal record is that this is still detectable.
  ByteVec stream = framing::frame_record(as_bytes("complete record"));
  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.torn);
  EXPECT_FALSE(scan.sealed);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_EQ(scan.logical_bytes, 15u);
  EXPECT_EQ(scan.valid_prefix, stream.size());
  EXPECT_FALSE(framing::read_stream(stream).payload.has_value());
}

TEST(Framing, TornTailKeepsValidPrefix) {
  ByteVec stream = framing::frame_record(as_bytes("keep me"));
  const std::size_t prefix = stream.size();
  mhd::append(stream, framing::frame_record(as_bytes("torn away")));
  mhd::append(stream, framing::seal_record(7 + 9));
  // Tear at every length inside the second record + seal.
  for (std::size_t keep = prefix + 1; keep < stream.size(); ++keep) {
    const ByteVec torn(stream.begin(),
                       stream.begin() + static_cast<std::ptrdiff_t>(keep));
    const auto scan = framing::scan_records(torn);
    EXPECT_FALSE(scan.sealed) << "keep " << keep;
    EXPECT_TRUE(scan.torn || scan.corrupt) << "keep " << keep;
    // The salvageable prefix never shrinks below the first record and
    // never claims bytes from the torn tail.
    EXPECT_GE(scan.valid_prefix, prefix) << "keep " << keep;
    EXPECT_GE(scan.logical_bytes, 7u) << "keep " << keep;
  }
}

TEST(Framing, CorruptRecordPayloadDetected) {
  ByteVec stream = framing::frame_record(as_bytes("aaaa"));
  mhd::append(stream, framing::frame_record(as_bytes("bbbb")));
  mhd::append(stream, framing::seal_record(8));
  // Flip one payload byte in the second record.
  stream[framing::kHeaderBytes + 4 + framing::kHeaderBytes + 2] ^= 0x80;
  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.sealed);
  EXPECT_EQ(scan.logical_bytes, 4u);  // first record still salvageable
  EXPECT_EQ(scan.valid_prefix, framing::kHeaderBytes + 4);
}

TEST(Framing, SealLengthMismatchIsCorrupt) {
  ByteVec stream = framing::frame_record(as_bytes("data"));
  mhd::append(stream, framing::seal_record(99));  // lies about the length
  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.sealed);
}

TEST(Framing, BytesAfterSealAreCorrupt) {
  ByteVec stream = framing::frame_record(as_bytes("data"));
  mhd::append(stream, framing::seal_record(4));
  mhd::append(stream, framing::frame_record(as_bytes("late append")));
  EXPECT_TRUE(framing::scan_records(stream).corrupt);
}

// --- FramedBackend -------------------------------------------------------

TEST(FramedBackend, LogicalViewMatchesBareBackend) {
  MemoryBackend raw;
  FramedBackend framed(raw);

  const ByteVec a = bytes_of("chunk-part-one");
  const ByteVec b = bytes_of("chunk-part-two!");
  framed.append(Ns::kDiskChunk, "c0", a);
  framed.append(Ns::kDiskChunk, "c0", b);
  framed.seal(Ns::kDiskChunk, "c0");
  framed.put(Ns::kHook, "h0", bytes_of("hookdata"));

  // Logical view: exactly the payload bytes.
  EXPECT_EQ(framed.content_bytes(Ns::kDiskChunk), a.size() + b.size());
  EXPECT_EQ(framed.content_bytes(Ns::kHook), 8u);
  ByteVec whole = a;
  mhd::append(whole, b);
  EXPECT_EQ(framed.get(Ns::kDiskChunk, "c0"), whole);
  const auto range = framed.get_range(Ns::kDiskChunk, "c0", a.size(), 4);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range, bytes_of("chun"));

  // Physical view: framing overhead on top.
  EXPECT_EQ(framed.physical_bytes(Ns::kDiskChunk),
            a.size() + b.size() + 2 * framing::kHeaderBytes +
                framing::kSealBytes);
  EXPECT_GT(framed.physical_bytes(Ns::kHook),
            framed.content_bytes(Ns::kHook));
}

TEST(FramedBackend, AbsentIsNulloptCorruptThrows) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  EXPECT_EQ(framed.get(Ns::kManifest, "missing"), std::nullopt);
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "missing", 0, 1), std::nullopt);

  framed.put(Ns::kManifest, "m0", bytes_of("manifest body"));
  // Flip one stored byte underneath the framing: the exact bit-rot the
  // acceptance criteria require to be caught on read, never returned.
  for (std::size_t i = 0; i < raw.get(Ns::kManifest, "m0")->size(); ++i) {
    ByteVec bad = *raw.get(Ns::kManifest, "m0");
    bad[i] ^= 0x40;
    MemoryBackend raw2;
    raw2.put(Ns::kManifest, "m0", bad);
    FramedBackend framed2(raw2);
    EXPECT_THROW(framed2.get(Ns::kManifest, "m0"), CorruptObjectError);
  }
}

TEST(FramedBackend, CorruptErrorCarriesNamespaceAndName) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.put(Ns::kHook, "deadbeef", bytes_of("payload"));
  (*raw.get(Ns::kHook, "deadbeef"));
  ByteVec bad = *raw.get(Ns::kHook, "deadbeef");
  bad[0] ^= 0xFF;
  raw.put(Ns::kHook, "deadbeef", bad);
  try {
    framed.get(Ns::kHook, "deadbeef");
    FAIL() << "expected CorruptObjectError";
  } catch (const CorruptObjectError& e) {
    EXPECT_EQ(e.ns(), Ns::kHook);
    EXPECT_EQ(e.object_name(), "deadbeef");
    EXPECT_NE(std::string(e.what()).find("hooks/deadbeef"), std::string::npos);
  }
}

TEST(FramedBackend, TornChunkThrowsOnRead) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.append(Ns::kDiskChunk, "c0", bytes_of("0123456789abcdef"));
  framed.seal(Ns::kDiskChunk, "c0");
  // Simulate a torn write: drop the last 5 physical bytes.
  ByteVec phys = *raw.get(Ns::kDiskChunk, "c0");
  phys.resize(phys.size() - 5);
  raw.put(Ns::kDiskChunk, "c0", phys);
  EXPECT_THROW(framed.get(Ns::kDiskChunk, "c0"), CorruptObjectError);
  EXPECT_THROW(framed.get_range(Ns::kDiskChunk, "c0", 0, 4),
               CorruptObjectError);
}

TEST(FramedBackend, RangeBeyondLogicalSizeIsNullopt) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.put(Ns::kDiskChunk, "c0", bytes_of("0123456789"));
  EXPECT_TRUE(framed.get_range(Ns::kDiskChunk, "c0", 0, 10).has_value());
  EXPECT_TRUE(framed.get_range(Ns::kDiskChunk, "c0", 10, 0).has_value());
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 0, 11), std::nullopt);
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 11, 0), std::nullopt);
  // Overflow-crafted range must not wrap into success.
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 1,
                             std::numeric_limits<std::uint64_t>::max()),
            std::nullopt);
}

TEST(FramedBackend, ReopenAdoptsLogicalAccounting) {
  // The same history twice: once through one instance, once with a reopen
  // in the middle. The reopened instance sizes pre-existing objects only on
  // demand, so its totals must still match the never-reopened one's.
  const auto before_reopen = [](FramedBackend& framed) {
    framed.append(Ns::kDiskChunk, "c0", bytes_of("0123456789"));
    framed.seal(Ns::kDiskChunk, "c0");
    framed.append(Ns::kDiskChunk, "c2", bytes_of("resumed-"));
    framed.append(Ns::kDiskChunk, "c3", bytes_of("sealed late"));
    framed.put(Ns::kManifest, "m0", bytes_of("manifest"));
    framed.put(Ns::kManifest, "m1", bytes_of("manifest one"));
    framed.put(Ns::kHook, "h0", bytes_of("hook"));
    framed.put(Ns::kHook, "h1", bytes_of("hook2"));
    framed.remove(Ns::kHook, "h0");
  };
  // Put-replace one pre-existing object and remove another before any
  // content_bytes call; resume one unsealed stream and seal another.
  const auto after_reopen = [](FramedBackend& framed) {
    framed.put(Ns::kManifest, "m0", bytes_of("a longer manifest"));
    EXPECT_TRUE(framed.remove(Ns::kManifest, "m1"));
    framed.append(Ns::kDiskChunk, "c2", bytes_of("and sealed"));
    framed.seal(Ns::kDiskChunk, "c2");
    framed.seal(Ns::kDiskChunk, "c3");
  };

  MemoryBackend raw;
  {
    FramedBackend framed(raw);
    before_reopen(framed);
  }
  FramedBackend reopened(raw);
  EXPECT_EQ(reopened.content_bytes(Ns::kHook), 5u);
  EXPECT_EQ(reopened.object_count(Ns::kHook), 1u);
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c0"), bytes_of("0123456789"));
  after_reopen(reopened);

  MemoryBackend twin_raw;
  FramedBackend never_reopened(twin_raw);
  before_reopen(never_reopened);
  after_reopen(never_reopened);
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    EXPECT_EQ(reopened.content_bytes(ns), never_reopened.content_bytes(ns))
        << ns_name(ns);
    EXPECT_EQ(reopened.object_count(ns), never_reopened.object_count(ns))
        << ns_name(ns);
  }
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 10u + 18u + 11u);
  EXPECT_EQ(reopened.content_bytes(Ns::kManifest), 17u);
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c2"), bytes_of("resumed-and sealed"));
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c3"), bytes_of("sealed late"));
  // Appending more after reopen continues the stream correctly.
  reopened.append(Ns::kDiskChunk, "c1", bytes_of("more"));
  reopened.seal(Ns::kDiskChunk, "c1");
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c1"), bytes_of("more"));
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 10u + 18u + 11u + 4u);
}

// A read that fails while sizing a resumed stream leaves no size behind:
// the retried append sizes the stream again, so its seal covers every
// record.
TEST(FramedBackend, FailedSizingReadIsRetried) {
  MemoryBackend raw;
  {
    FramedBackend framed(raw);
    framed.append(Ns::kDiskChunk, "c0", bytes_of("before-"));
  }
  FaultInjectingBackend faulty(raw, FaultPlan::parse("readerr@1"));
  FramedBackend reopened(faulty);
  EXPECT_THROW(reopened.append(Ns::kDiskChunk, "c0", bytes_of("after")),
               TransientReadError);
  reopened.append(Ns::kDiskChunk, "c0", bytes_of("after"));
  reopened.seal(Ns::kDiskChunk, "c0");
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c0"), bytes_of("before-after"));
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 12u);
}

TEST(FramedBackend, PutReplaceAndRemoveKeepAccountingExact) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.put(Ns::kManifest, "m", bytes_of("short"));
  framed.put(Ns::kManifest, "m", bytes_of("a much longer manifest body"));
  EXPECT_EQ(framed.content_bytes(Ns::kManifest), 27u);
  framed.put(Ns::kManifest, "m", bytes_of("tiny"));
  EXPECT_EQ(framed.content_bytes(Ns::kManifest), 4u);
  EXPECT_TRUE(framed.remove(Ns::kManifest, "m"));
  EXPECT_EQ(framed.content_bytes(Ns::kManifest), 0u);
  EXPECT_EQ(framed.physical_bytes(Ns::kManifest), 0u);
  EXPECT_FALSE(framed.remove(Ns::kManifest, "m"));
}

// --- Range reads through the record table ---------------------------------
//
// Every case starts with a 64-record stream this backend wrote and sealed,
// so it holds the stream's record table from the writer, and range reads
// fetch only the records they cover.

class FramedRangeRead : public ::testing::Test {
 protected:
  static constexpr std::size_t kRecords = 64;

  void SetUp() override {
    Xoshiro256 rng(64);
    for (std::size_t i = 0; i < kRecords; ++i) {
      ByteVec part(700 + 37 * i);  // distinct lengths: offsets can't alias
      for (auto& b : part) b = static_cast<Byte>(rng());
      starts_.push_back(logical_.size());
      mhd::append(logical_, part);
      framed_.append(Ns::kDiskChunk, "c0", part);
    }
    starts_.push_back(logical_.size());
    framed_.seal(Ns::kDiskChunk, "c0");
    mem_.reset_read_bytes();
  }

  ByteVec slice(std::uint64_t offset, std::uint64_t length) const {
    return ByteVec(logical_.begin() + static_cast<std::ptrdiff_t>(offset),
                   logical_.begin() +
                       static_cast<std::ptrdiff_t>(offset + length));
  }
  std::uint64_t record_bytes(std::size_t i) const {
    return starts_[i + 1] - starts_[i];
  }
  /// Physical offset of record i's first payload byte.
  std::uint64_t physical_payload(std::size_t i) const {
    return starts_[i] + (i + 1) * framing::kHeaderBytes;
  }
  /// Flips one payload byte of record i underneath the framing.
  void flip_in_record(std::size_t i) {
    ByteVec raw = *mem_.raw().get(Ns::kDiskChunk, "c0");
    raw[physical_payload(i) + record_bytes(i) / 2] ^= 0x20;
    mem_.raw().put(Ns::kDiskChunk, "c0", raw);
  }

  CountingBackend mem_;
  FramedBackend framed_{mem_};
  ByteVec logical_;
  std::vector<std::uint64_t> starts_;  ///< logical start of each record
};

TEST_F(FramedRangeRead, OneRecordRangePullsOnlyThatRecord) {
  const std::size_t r = 40;
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", starts_[r],
                              record_bytes(r)),
            slice(starts_[r], record_bytes(r)));
  EXPECT_LE(mem_.read_bytes(), framing::kHeaderBytes + record_bytes(r));

  // A few bytes inside the record cost the same whole-record check.
  mem_.reset_read_bytes();
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", starts_[r] + 5, 9),
            slice(starts_[r] + 5, 9));
  EXPECT_LE(mem_.read_bytes(), framing::kHeaderBytes + record_bytes(r));

  // A range straddling a boundary pulls exactly the two records it covers.
  mem_.reset_read_bytes();
  const std::uint64_t across = starts_[r + 1] - 3;
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", across, 6),
            slice(across, 6));
  EXPECT_EQ(mem_.read_bytes(),
            2 * framing::kHeaderBytes + record_bytes(r) + record_bytes(r + 1));

  // An empty range at the end of the stream reads no record at all.
  mem_.reset_read_bytes();
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", logical_.size(), 0),
            ByteVec{});
  EXPECT_EQ(mem_.read_bytes(), 0u);
}

TEST_F(FramedRangeRead, BitFlipInCoveringRecordThrows) {
  flip_in_record(10);
  EXPECT_THROW(framed_.get_range(Ns::kDiskChunk, "c0", starts_[10] + 1, 4),
               CorruptObjectError);
  EXPECT_THROW(framed_.get_range(Ns::kDiskChunk, "c0", starts_[9],
                                 record_bytes(9) + record_bytes(10)),
               CorruptObjectError);
}

TEST_F(FramedRangeRead, BitFlipOutsideRangeServesRangeButGetThrows) {
  flip_in_record(50);
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", starts_[20], 100),
            slice(starts_[20], 100));
  EXPECT_THROW(framed_.get(Ns::kDiskChunk, "c0"), CorruptObjectError);
}

TEST_F(FramedRangeRead, ObjectRemovedUnderneathReadsAsNullopt) {
  ASSERT_TRUE(mem_.raw().remove(Ns::kDiskChunk, "c0"));
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", starts_[5], 10),
            std::nullopt);
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", 0, 0), std::nullopt);
}

TEST_F(FramedRangeRead, ObjectTornUnderneathThrowsInLostTail) {
  // Keep the first 48 records and half of the 49th: the seal is gone.
  ByteVec raw = *mem_.raw().get(Ns::kDiskChunk, "c0");
  raw.resize(physical_payload(48) + record_bytes(48) / 2);
  mem_.raw().put(Ns::kDiskChunk, "c0", raw);
  EXPECT_THROW(framed_.get_range(Ns::kDiskChunk, "c0", starts_[60], 10),
               CorruptObjectError);
  EXPECT_THROW(framed_.get_range(Ns::kDiskChunk, "c0", starts_[48] + 1,
                                 record_bytes(48) - 1),
               CorruptObjectError);
}

TEST_F(FramedRangeRead, WriterTableServesTheFirstRangeRead) {
  // No whole read first: the table the writer built covers the first
  // range read too.
  const std::uint64_t reads_before = mem_.reads(Ns::kDiskChunk);
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", starts_[0] + 3, 5),
            slice(starts_[0] + 3, 5));
  EXPECT_EQ(mem_.reads(Ns::kDiskChunk), reads_before + 1);
  EXPECT_EQ(mem_.read_bytes(), framing::kHeaderBytes + record_bytes(0));
}

TEST_F(FramedRangeRead, FreshInstanceReadsTheStreamWholeOnce) {
  const std::uint64_t physical = mem_.raw().get(Ns::kDiskChunk, "c0")->size();
  FramedBackend fresh(mem_);
  mem_.reset_read_bytes();
  const std::uint64_t reads_before = mem_.reads(Ns::kDiskChunk);
  EXPECT_EQ(fresh.get_range(Ns::kDiskChunk, "c0", starts_[7], 10),
            slice(starts_[7], 10));
  EXPECT_EQ(mem_.reads(Ns::kDiskChunk), reads_before + 1);
  EXPECT_EQ(mem_.read_bytes(), physical);  // the first read is whole

  mem_.reset_read_bytes();
  EXPECT_EQ(fresh.get_range(Ns::kDiskChunk, "c0", starts_[30], 10),
            slice(starts_[30], 10));
  EXPECT_EQ(mem_.reads(Ns::kDiskChunk), reads_before + 2);
  EXPECT_EQ(mem_.read_bytes(), framing::kHeaderBytes + record_bytes(30));
}

TEST_F(FramedRangeRead, PutReplacingObjectServesNewBytes) {
  const ByteVec fresh = bytes_of("a replacement written through the backend");
  framed_.put(Ns::kDiskChunk, "c0", fresh);
  const auto range = framed_.get_range(Ns::kDiskChunk, "c0", 2, 11);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range, ByteVec(fresh.begin() + 2, fresh.begin() + 13));
  EXPECT_EQ(framed_.get_range(Ns::kDiskChunk, "c0", starts_[30], 10),
            std::nullopt);  // beyond the new object's end
}

// --- Record tables built by the writer --------------------------------------
//
// A DiskChunk stream this backend created gets its table at seal, once
// the seal reads back where the table puts it. Everything else takes the
// first-read path, which reads the stream whole and gives its verdict.

constexpr std::size_t kStreamRecords = 8;

ByteVec record_payload_of(std::size_t i) {
  ByteVec part(300 + 11 * i);
  Xoshiro256 rng(100 + i);
  for (auto& b : part) b = static_cast<Byte>(rng());
  return part;
}

ByteVec stream_payload() {
  ByteVec all;
  for (std::size_t i = 0; i < kStreamRecords; ++i) {
    mhd::append(all, record_payload_of(i));
  }
  return all;
}

/// Every range of the stream, read through `framed`, throws as corrupt.
void expect_reads_corrupt(const FramedBackend& framed,
                          const std::string& name) {
  const std::uint64_t total = stream_payload().size();
  for (std::uint64_t at = 0; at < total; at += total / 5) {
    EXPECT_THROW(framed.get_range(Ns::kDiskChunk, name, at, 1),
                 CorruptObjectError)
        << "offset " << at;
  }
  EXPECT_THROW(framed.get(Ns::kDiskChunk, name), CorruptObjectError);
}

// Mutation 1..8 are the appends, 9 the seal.
class FailedStreamWrite : public ::testing::TestWithParam<const char*> {};

TEST_P(FailedStreamWrite, ReadsAsCorruptThroughTheWritingInstance) {
  MemoryBackend raw;
  FaultInjectingBackend faulty(raw, FaultPlan::parse(GetParam()));
  FramedBackend framed(faulty);
  bool threw = false;
  for (std::size_t i = 0; i < kStreamRecords && !threw; ++i) {
    try {
      framed.append(Ns::kDiskChunk, "c0", record_payload_of(i));
    } catch (const BackendIoError&) {
      threw = true;  // a writer stops at the first failed append
    }
  }
  if (!threw) {
    try {
      framed.seal(Ns::kDiskChunk, "c0");
    } catch (const BackendIoError&) {
    }
  }
  expect_reads_corrupt(framed, "c0");
}

INSTANTIATE_TEST_SUITE_P(FaultPlans, FailedStreamWrite,
                         ::testing::Values("torn@1:0.5", "torn@4:0.3",
                                           "torn@8:0.9", "torn@9:0.5",
                                           "fail@2", "fail@8", "fail@9"));

TEST(FramedWriterTable, RetriedAppendAfterFailureReadsExact) {
  MemoryBackend raw;
  FaultInjectingBackend faulty(raw, FaultPlan::parse("fail@3"));
  FramedBackend framed(faulty);
  for (std::size_t i = 0; i < kStreamRecords; ++i) {
    try {
      framed.append(Ns::kDiskChunk, "c0", record_payload_of(i));
    } catch (const BackendIoError&) {
      framed.append(Ns::kDiskChunk, "c0", record_payload_of(i));
    }
  }
  framed.seal(Ns::kDiskChunk, "c0");
  const ByteVec all = stream_payload();
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 700, 900),
            ByteVec(all.begin() + 700, all.begin() + 1600));
  EXPECT_EQ(framed.get(Ns::kDiskChunk, "c0"), all);
}

TEST(FramedWriterTable, ResumedStreamTakesTheFirstReadPath) {
  CountingBackend mem;
  {
    FramedBackend earlier(mem);
    for (std::size_t i = 0; i < kStreamRecords / 2; ++i) {
      earlier.append(Ns::kDiskChunk, "c0", record_payload_of(i));
    }
  }
  FramedBackend resumed(mem);
  for (std::size_t i = kStreamRecords / 2; i < kStreamRecords; ++i) {
    resumed.append(Ns::kDiskChunk, "c0", record_payload_of(i));
  }
  resumed.seal(Ns::kDiskChunk, "c0");

  const std::uint64_t physical = mem.raw().get(Ns::kDiskChunk, "c0")->size();
  mem.reset_read_bytes();
  const ByteVec all = stream_payload();
  EXPECT_EQ(resumed.get_range(Ns::kDiskChunk, "c0", 10, 20),
            ByteVec(all.begin() + 10, all.begin() + 30));
  EXPECT_EQ(mem.read_bytes(), physical);  // whole: no writer's table
  EXPECT_EQ(resumed.get(Ns::kDiskChunk, "c0"), all);
}

TEST(FramedWriterTable, SealingAContainerPublishesNoTable) {
  CountingBackend mem;
  FramedBackend framed(mem);
  for (std::size_t i = 0; i < kStreamRecords; ++i) {
    framed.append(Ns::kContainer, "k0", record_payload_of(i));
  }
  framed.seal(Ns::kContainer, "k0");
  const std::uint64_t physical = mem.raw().get(Ns::kContainer, "k0")->size();
  mem.reset_read_bytes();
  const ByteVec all = stream_payload();
  EXPECT_EQ(framed.get_range(Ns::kContainer, "k0", 10, 20),
            ByteVec(all.begin() + 10, all.begin() + 30));
  EXPECT_EQ(mem.read_bytes(), physical);
}

TEST(FramedWriterTable, PutAndRemoveDiscardTheTableBeingBuilt) {
  CountingBackend mem;
  FramedBackend framed(mem);
  framed.append(Ns::kDiskChunk, "c0", record_payload_of(0));
  framed.put(Ns::kDiskChunk, "c0", bytes_of("replaced whole"));
  framed.append(Ns::kDiskChunk, "c1", record_payload_of(0));
  ASSERT_TRUE(framed.remove(Ns::kDiskChunk, "c1"));
  // c1 starts over: absent again, so its writer builds a fresh table.
  for (std::size_t i = 0; i < kStreamRecords; ++i) {
    framed.append(Ns::kDiskChunk, "c1", record_payload_of(i));
  }
  framed.seal(Ns::kDiskChunk, "c1");

  mem.reset_read_bytes();
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 9, 5), bytes_of("whole"));
  const ByteVec all = stream_payload();
  const std::uint64_t c0_physical =
      mem.raw().get(Ns::kDiskChunk, "c0")->size();
  EXPECT_EQ(mem.read_bytes(), c0_physical);  // put leaves the first read
  mem.reset_read_bytes();
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c1", 2, 3),
            ByteVec(all.begin() + 2, all.begin() + 5));
  EXPECT_EQ(mem.read_bytes(),
            framing::kHeaderBytes + record_payload_of(0).size());
}

}  // namespace
}  // namespace mhd
