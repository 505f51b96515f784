// Plain content-defined-chunking deduplication (the paper's "CDC" column):
// every chunk at ECS granularity is indexed individually — one Manifest
// entry and one on-disk Hook per stored chunk. Duplicate detection uses the
// Manifest cache for locality, a bloom filter to skip lookups for new
// hashes, and an on-disk hook query otherwise. Maximum duplicate
// elimination at maximum metadata cost (TABLE I: 512F + 312N bytes).
#pragma once

#include "mhd/dedup/engine.h"

namespace mhd {

class CdcEngine final : public AnchoredEngine {
 public:
  CdcEngine(ObjectStore& store, const EngineConfig& config)
      : AnchoredEngine(store, config, /*hook_flags=*/false) {}

  std::string name() const override { return "CDC"; }

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;
};

}  // namespace mhd
