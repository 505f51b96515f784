#include "mhd/dedup/cdc_engine.h"

namespace mhd {

void CdcEngine::process_file(const std::string& file_name, ByteSource& data) {
  FileOut out = open_file(file_name);
  auto stream = open_ingest(data, cfg_.ecs);
  ByteVec bytes;
  Digest hash;
  while (stream.next(bytes, hash)) {
    counters_.input_bytes += bytes.size();
    ++counters_.input_chunks;
    if (const auto dup = find_duplicate(hash, AccessKind::kSmallChunkQuery);
        dup && take_duplicate(*dup, out.fm)) {
      continue;
    }
    note_unique(bytes.size());
    store_indexed(out, bytes, hash, 1);
  }
  close_file(out);
}

}  // namespace mhd
