#include "mhd/core/mhd_engine.h"

#include <algorithm>


namespace mhd {

MhdEngine::MhdEngine(ObjectStore& store, const EngineConfig& config)
    : AnchoredEngine(store, config, /*hook_flags=*/true),
      extender_(store, cache_, cfg_, counters_) {}

void MhdEngine::flush_pending(FileCtx& ctx, std::size_t count) {
  count = std::min(count, ctx.pending.size());
  std::size_t done = 0;
  std::vector<ByteSpan> bytes;
  while (done < count) {
    std::size_t group = std::min<std::size_t>(cfg_.sd, count - done);
    // Paper, Section III: "SHM can be performed on the contiguous
    // non-duplicate chunks of the original input stream, to guarantee each
    // non-duplicate data slice of the input stream owns at least one
    // Hook." Cut the group at the first file-discontinuity (a duplicate
    // slice was removed between those chunks), so the next slice starts
    // with its own Hook — the anchor a later backup needs.
    for (std::size_t j = 1; j < group; ++j) {
      const StreamChunk& prev = ctx.pending[j - 1];
      if (prev.file_offset + prev.bytes.size() !=
          ctx.pending[j].file_offset) {
        group = j;
        break;
      }
    }
    done += group;

    // Group leader becomes a Hook: small-chunk granularity, addressable
    // from disk via a hash-named hook file pointing at this Manifest. The
    // Hook is written before the group's bytes, which go to the DiskChunk
    // in one write: the leader, then the rest.
    const Digest leader = ctx.pending.front().hash;
    write_hook(leader, ctx.out.dig);
    bytes.clear();
    for (std::size_t j = 0; j < group; ++j) {
      bytes.push_back(ctx.pending[j].bytes);
    }
    std::uint64_t at = store_chunks(ctx.out.writer, bytes);

    // Sampling and Hash Merging: the SD-1 chunks between hooks are
    // represented by a single hash over their concatenation. The ablation
    // without it keeps one entry per chunk (metadata grows like CDC).
    Sha1 merged;
    std::uint64_t merged_off = 0;
    for (std::size_t j = 0; j < group; ++j) {
      const StreamChunk& c = ctx.pending.front();
      const ChunkRef ref{ctx.out.dig, at,
                         static_cast<std::uint32_t>(c.bytes.size())};
      at += ref.size;
      ctx.log.push_back({c.file_offset, ref.chunk, ref.offset, ref.size});
      ctx.current.emplace(c.hash, ref);
      if (j == 0) {
        ctx.out.manifest.add({leader, ref.offset, ref.size, 1, true});
        merged_off = at;
      } else if (cfg_.enable_shm) {
        merged.update(c.bytes);
      } else {
        ctx.out.manifest.add({c.hash, ref.offset, ref.size, 1, false});
      }
      ctx.pending.pop_front();
    }
    if (group > 1 && cfg_.enable_shm) {
      ctx.out.manifest.add({merged.digest(), merged_off,
                            static_cast<std::uint32_t>(at - merged_off),
                            static_cast<std::uint32_t>(group - 1), false});
      ++counters_.shm_merged_hashes;
    }
  }
}

void MhdEngine::process_file(const std::string& file_name, ByteSource& data) {
  FileCtx ctx(open_file(file_name));
  auto stream = open_ingest(data, cfg_.ecs);

  auto pull_chunk = [&]() -> std::optional<StreamChunk> {
    if (!ctx.inbox.empty()) {
      StreamChunk c = std::move(ctx.inbox.front());
      ctx.inbox.pop_front();
      return c;
    }
    StreamChunk c;
    if (!stream.next(c.bytes, c.hash)) return std::nullopt;
    c.file_offset = ctx.file_offset;
    ctx.file_offset += c.bytes.size();
    counters_.input_bytes += c.bytes.size();
    ++counters_.input_chunks;
    return c;
  };

  while (auto chunk = pull_chunk()) {
    auto loc = find_anchor(chunk->hash, AccessKind::kSmallChunkQuery);
    if (loc) {
      const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
      if (e.size == chunk->bytes.size() &&
          admit_duplicate(loc->manifest->chunk_name(), e.offset, e.size)) {
        // extend() may HHR-splice new entries into this manifest and
        // reallocate its entry vector, so `e` dies here — keep the size.
        const std::uint32_t anchor_size = e.size;
        end_dup_run();
        auto outcome =
            extender_.extend(*loc, *chunk, ctx.pending, pull_chunk);
        ++counters_.dup_slices;
        counters_.dup_chunks += outcome.dup_chunks;
        counters_.dup_bytes += outcome.dup_bytes;
        // The extension walked past the anchor inside the same DiskChunk;
        // the rewrite stream advances by everything the slice consumed.
        if (outcome.dup_bytes > anchor_size) {
          advance_rewrite_stream(outcome.dup_bytes - anchor_size);
        }
        for (auto& seg : outcome.dup_segments) ctx.log.push_back(seg);
        for (const auto& [hash, ref] : outcome.matched_chunks) {
          ctx.current.emplace(hash, ref);
        }
        // Unmatched prefetches re-enter the pipeline in stream order.
        while (!outcome.leftover.empty()) {
          ctx.inbox.push_front(std::move(outcome.leftover.back()));
          outcome.leftover.pop_back();
        }
        continue;
      }
    }
    // Intra-file duplicate: a chunk identical to one this file already
    // stored or matched (see FileCtx::current).
    if (const auto it = ctx.current.find(chunk->hash);
        it != ctx.current.end() && it->second.size == chunk->bytes.size() &&
        admit_duplicate(it->second.chunk, it->second.offset,
                        it->second.size)) {
      const ChunkRef& ref = it->second;
      note_duplicate(ref.size);
      ctx.log.push_back({chunk->file_offset, ref.chunk, ref.offset, ref.size});
      continue;
    }
    note_unique(chunk->bytes.size());
    ctx.pending.push_back(std::move(*chunk));
    if (ctx.pending.size() >= 2 * static_cast<std::size_t>(cfg_.sd)) {
      flush_pending(ctx, cfg_.sd);
    }
  }
  flush_pending(ctx, ctx.pending.size());

  // Build the run-length FileManifest from the segment log.
  std::sort(ctx.log.begin(), ctx.log.end(),
            [](const FileSegment& a, const FileSegment& b) {
              return a.file_offset < b.file_offset;
            });
  // Invariant: the segments tile the file exactly — every byte resolved
  // once, no gaps, no overlaps. A violation means a match-extension bug.
  std::uint64_t cursor = 0;
  for (const auto& seg : ctx.log) {
    if (seg.file_offset != cursor) {
      throw std::logic_error("MhdEngine: segment log does not tile " +
                             file_name);
    }
    cursor += seg.length;
  }
  if (cursor != ctx.file_offset) {
    throw std::logic_error("MhdEngine: segment log length mismatch for " +
                           file_name);
  }
  for (const auto& seg : ctx.log) {
    ctx.out.fm.add_range(seg.chunk_name, seg.chunk_offset, seg.length,
                         /*coalesce=*/true);
  }
  close_file(ctx.out);
}

void MhdEngine::flush_session() {
  if (cfg_.index_impl == IndexImpl::kDisk ||
      cfg_.index_impl == IndexImpl::kSampled) {
    // Keep the cache resident: the fresh-engine baseline warm-loads the
    // persisted residency list anyway, so staying warm IS the baseline.
    // The sampled tier additionally persists its hook table + loss meter
    // here, making the session boundary a commit point for the tier.
    cache_.flush();
    persist_index_state();
  } else {
    // A fresh mem-index engine starts with an empty cache and index;
    // evict-all reproduces that exactly (the mirror invariant drains the
    // MemIndex with the cache).
    cache_.reset();
  }
}

}  // namespace mhd
