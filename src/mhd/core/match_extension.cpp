#include "mhd/core/match_extension.h"

#include <algorithm>

namespace mhd {

namespace {

/// SHA-1 over a run of stream chunks (concatenated bytes).
Digest hash_run(const std::deque<StreamChunk>& chunks, std::size_t first,
                std::size_t count) {
  Sha1 h;
  for (std::size_t i = 0; i < count; ++i) h.update(chunks[first + i].bytes);
  return h.digest();
}

/// Records where each of the `count` matched chunks from chunks[first] is
/// stored: back to back from `offset` in the DiskChunk `chunk`.
void note_matched(MatchExtender::Outcome& out, const Digest& chunk,
                  std::uint64_t offset, const std::deque<StreamChunk>& chunks,
                  std::size_t first, std::size_t count) {
  for (std::size_t j = first; j < first + count; ++j) {
    const auto size = static_cast<std::uint32_t>(chunks[j].bytes.size());
    out.matched_chunks.push_back({chunks[j].hash, {chunk, offset, size}});
    offset += size;
  }
}

}  // namespace

std::size_t MatchExtender::splice(Manifest& m, const Digest& name,
                                  std::size_t index,
                                  std::vector<ManifestEntry> replacement) {
  auto& entries = m.entries();
  entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(index));
  entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(index),
                 replacement.begin(), replacement.end());
  m.set_dirty();
  cache_.mark_dirty(name);
  cache_.invalidate_index(name);
  ++counters_.hhr_operations;
  return replacement.size() - 1;
}

std::optional<ByteVec> MatchExtender::reload_chunk_range(
    const Manifest& m, const ManifestEntry& e) {
  try {
    return store_.read_chunk_range(m.chunk_name().hex(), e.offset, e.size);
  } catch (const CorruptObjectError&) {
    ++counters_.corruption_fallbacks;
    return std::nullopt;
  }
}

bool MatchExtender::hhr_backward(Manifest& m, const Digest& name,
                                 std::size_t index,
                                 std::deque<StreamChunk>& pending,
                                 std::uint64_t frontier, Outcome& out) {
  const ManifestEntry e = m.entries()[index];  // copy: we may splice
  const auto bytes = reload_chunk_range(m, e);
  ++counters_.hhr_chunk_reloads;
  if (!bytes) return false;

  // Byte-compare the tail of the buffer against the tail of the old region,
  // whole buffered chunks at a time (the paper compares at new-chunk
  // granularity: Chunk 4/5 duplicate, Chunk N3 not). The buffer may hold
  // non-adjacent chunks (unmatched survivors on both sides of an earlier
  // duplicate slice), so the run must stay file-contiguous up to the
  // frontier — the recorded duplicate segment covers one file range.
  std::uint64_t acc = 0;
  std::size_t matched = 0;
  while (matched < pending.size()) {
    const StreamChunk& pc = pending[pending.size() - 1 - matched];
    if (pc.file_offset + pc.bytes.size() + acc != frontier) break;
    const ByteVec& pb = pc.bytes;
    if (acc + pb.size() > e.size) break;
    const ByteSpan old_piece(bytes->data() + (e.size - acc - pb.size()),
                             pb.size());
    if (!equal(pb, old_piece)) break;
    acc += pb.size();
    ++matched;
  }
  if (acc == 0) return false;

  // EdgeHash: pin the discovered edge with a block the size of the first
  // mismatching new chunk, so the identical slice never re-triggers HHR.
  std::uint64_t edge_size = 0;
  if (cfg_.enable_edge_hash && matched < pending.size()) {
    edge_size =
        std::min<std::uint64_t>(pending[pending.size() - 1 - matched].bytes.size(),
                                e.size - acc);
  }
  const std::uint64_t rem_size = e.size - acc - edge_size;

  std::vector<ManifestEntry> repl;
  if (rem_size > 0) {
    const std::uint32_t rem_chunks = static_cast<std::uint32_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(e.chunk_count) -
               static_cast<std::int64_t>(matched) - (edge_size > 0 ? 1 : 0)));
    repl.push_back({Sha1::digest_of({bytes->data(), rem_size}), e.offset,
                    static_cast<std::uint32_t>(rem_size), rem_chunks, false});
  }
  if (edge_size > 0) {
    repl.push_back({Sha1::digest_of({bytes->data() + rem_size, edge_size}),
                    e.offset + rem_size, static_cast<std::uint32_t>(edge_size),
                    1, false});
  }
  repl.push_back({Sha1::digest_of({bytes->data() + (e.size - acc), acc}),
                  e.offset + e.size - acc, static_cast<std::uint32_t>(acc),
                  static_cast<std::uint32_t>(std::max<std::size_t>(1, matched)),
                  false});
  splice(m, name, index, std::move(repl));

  // Consume the matched buffered chunks and record where their bytes live.
  out.dup_segments.push_back(
      {pending[pending.size() - matched].file_offset, m.chunk_name(),
       e.offset + e.size - acc, acc});
  note_matched(out, m.chunk_name(), e.offset + e.size - acc, pending,
               pending.size() - matched, matched);
  out.dup_chunks += matched;
  out.dup_bytes += acc;
  pending.erase(pending.end() - static_cast<std::ptrdiff_t>(matched),
                pending.end());
  return true;
}

bool MatchExtender::hhr_forward(Manifest& m, const Digest& name,
                                std::size_t index,
                                std::deque<StreamChunk>& look, Outcome& out) {
  const ManifestEntry e = m.entries()[index];
  const auto bytes = reload_chunk_range(m, e);
  ++counters_.hhr_chunk_reloads;
  if (!bytes) return false;

  std::uint64_t acc = 0;
  std::size_t matched = 0;
  while (matched < look.size()) {
    const ByteVec& lb = look[matched].bytes;
    if (acc + lb.size() > e.size) break;
    if (!equal(lb, ByteSpan(bytes->data() + acc, lb.size()))) break;
    acc += lb.size();
    ++matched;
  }
  if (acc == 0) return false;

  std::uint64_t edge_size = 0;
  if (cfg_.enable_edge_hash && matched < look.size()) {
    edge_size = std::min<std::uint64_t>(look[matched].bytes.size(), e.size - acc);
  }
  const std::uint64_t rem_size = e.size - acc - edge_size;

  std::vector<ManifestEntry> repl;
  repl.push_back({Sha1::digest_of({bytes->data(), acc}), e.offset,
                  static_cast<std::uint32_t>(acc),
                  static_cast<std::uint32_t>(std::max<std::size_t>(1, matched)),
                  false});
  if (edge_size > 0) {
    repl.push_back({Sha1::digest_of({bytes->data() + acc, edge_size}),
                    e.offset + acc, static_cast<std::uint32_t>(edge_size), 1,
                    false});
  }
  if (rem_size > 0) {
    const std::uint32_t rem_chunks = static_cast<std::uint32_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(e.chunk_count) -
               static_cast<std::int64_t>(matched) - (edge_size > 0 ? 1 : 0)));
    repl.push_back({Sha1::digest_of({bytes->data() + acc + edge_size, rem_size}),
                    e.offset + acc + edge_size,
                    static_cast<std::uint32_t>(rem_size), rem_chunks, false});
  }
  splice(m, name, index, std::move(repl));

  out.dup_segments.push_back(
      {look.front().file_offset, m.chunk_name(), e.offset, acc});
  note_matched(out, m.chunk_name(), e.offset, look, 0, matched);
  out.dup_chunks += matched;
  out.dup_bytes += acc;
  look.erase(look.begin(), look.begin() + static_cast<std::ptrdiff_t>(matched));
  return true;
}

MatchExtender::Outcome MatchExtender::extend(
    const ManifestCache::Located& loc, const StreamChunk& anchor,
    std::deque<StreamChunk>& pending, const PullFn& pull) {
  Outcome out;
  Manifest& m = *loc.manifest;
  const Digest name = loc.manifest_name;
  std::size_t i = loc.entry_index;

  // The anchor chunk itself.
  {
    const ManifestEntry& e = m.entries()[i];
    out.dup_segments.push_back({anchor.file_offset, m.chunk_name(), e.offset,
                                e.size});
    out.matched_chunks.push_back(
        {anchor.hash, {m.chunk_name(), e.offset, e.size}});
    out.dup_chunks += 1;
    out.dup_bytes += e.size;
  }

  // --- Backward Match Extension --------------------------------------
  if (cfg_.enable_backward_extension) {
    std::size_t bi = i;
    // File offset the matched region must end at: initially the anchor's
    // start; moves backward as entries match. Buffered chunks that are not
    // file-contiguous with it (survivors flanking an earlier duplicate
    // slice) cannot be part of this duplicate region.
    std::uint64_t frontier = anchor.file_offset;
    while (bi > 0 && !pending.empty()) {
      const ManifestEntry e = m.entries()[bi - 1];  // copy: splice safety
      // Gather a file-contiguous pending-tail run ending at the frontier
      // whose total size equals the entry size.
      std::uint64_t acc = 0;
      std::size_t k = 0;
      while (k < pending.size() && acc < e.size) {
        const StreamChunk& pc = pending[pending.size() - 1 - k];
        if (pc.file_offset + pc.bytes.size() + acc != frontier) break;
        acc += pc.bytes.size();
        ++k;
      }
      if (acc == e.size &&
          hash_run(pending, pending.size() - k, k) == e.hash) {
        out.dup_segments.push_back(
            {pending[pending.size() - k].file_offset, m.chunk_name(), e.offset,
             e.size});
        note_matched(out, m.chunk_name(), e.offset, pending,
                     pending.size() - k, k);
        out.dup_chunks += k;
        out.dup_bytes += e.size;
        frontier -= e.size;
        pending.erase(pending.end() - static_cast<std::ptrdiff_t>(k),
                      pending.end());
        --bi;
        continue;
      }
      // Mismatch. Re-chunk only merged entries that may straddle an edge.
      if (e.chunk_count > 1) {
        const std::size_t before = m.entries().size();
        hhr_backward(m, name, bi - 1, pending, frontier, out);
        i += m.entries().size() - before;  // splice shifts the anchor index
      }
      break;
    }
  }

  // --- Forward Match Extension ----------------------------------------
  std::deque<StreamChunk> look;
  std::uint64_t look_bytes = 0;
  auto ensure_look = [&](std::uint64_t need) {
    while (look_bytes < need) {
      auto c = pull();
      if (!c) return;
      look_bytes += c->bytes.size();
      look.push_back(std::move(*c));
    }
  };

  std::size_t fi = i;
  while (fi + 1 < m.entries().size()) {
    const ManifestEntry e = m.entries()[fi + 1];
    ensure_look(e.size);
    std::uint64_t acc = 0;
    std::size_t k = 0;
    while (k < look.size() && acc < e.size) {
      acc += look[k].bytes.size();
      ++k;
    }
    if (acc == e.size && hash_run(look, 0, k) == e.hash) {
      out.dup_segments.push_back(
          {look.front().file_offset, m.chunk_name(), e.offset, e.size});
      note_matched(out, m.chunk_name(), e.offset, look, 0, k);
      out.dup_chunks += k;
      out.dup_bytes += e.size;
      for (std::size_t j = 0; j < k; ++j) {
        look_bytes -= look.front().bytes.size();
        look.pop_front();
      }
      ++fi;
      continue;
    }
    if (e.chunk_count > 1 && !look.empty()) {
      const std::uint64_t before_bytes = look_bytes;
      const std::size_t before_count = look.size();
      hhr_forward(m, name, fi + 1, look, out);
      // hhr_forward consumed matched chunks from the front.
      if (look.size() != before_count) {
        look_bytes = 0;
        for (const auto& c : look) look_bytes += c.bytes.size();
      } else {
        look_bytes = before_bytes;
      }
    }
    break;
  }

  out.leftover = std::move(look);
  return out;
}

}  // namespace mhd
