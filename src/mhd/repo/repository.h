// Repository config, the one place that decides what a repository is
// (DESIGN.md "Repository descriptor"): framing, container size and index
// tier, which decide how stored bytes are read, and chunker, ECS and SD,
// which decide where new data is cut, are fixed at creation in a
// versioned, CRC-sealed `<root>/descriptor` file.
#pragma once

#include <filesystem>
#include <optional>

#include "mhd/dedup/engine.h"
#include "mhd/store/container_store.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/store_lock.h"
#include "mhd/util/flags.h"

namespace mhd {

/// Reads --ecs and --sd into `cfg`, which carries the defaults, with the
/// range checks every CLI applies: ECS 8..UINT32_MAX/8, SD >= 1. Throws
/// FlagError. The in-memory demos read only these two engine flags.
EngineConfig read_ecs_sd_flags(const Flags& flags, EngineConfig cfg);

/// Reads the engine flags dedup_cli and run_experiment share into `cfg`,
/// which carries the CLI's defaults: --ecs --sd --chunker --chunker-impl
/// --hash-impl --index-impl --index-cache-mb --sample-bits --champions
/// --framed --fault-plan --container-mb --restore-cache-mb --rewrite.
/// Throws FlagError on any mistake.
EngineConfig read_engine_flags(const Flags& flags, EngineConfig cfg);

/// The durability stack over `bottom`, each layer present when `cfg` asks:
///   bottom -> [FaultInjectingBackend] -> [FramedBackend] -> [ContainerBackend]
/// Faults hit the physical layer, below the framing that exists to detect
/// them; containers pack logical chunks above both.
class BackendStack {
 public:
  BackendStack(StorageBackend& bottom, const EngineConfig& cfg);

  StorageBackend& top() { return *top_; }
  ContainerBackend* containers() {
    return containers_ ? &*containers_ : nullptr;
  }

 private:
  std::optional<FaultInjectingBackend> faulty_;
  std::optional<FramedBackend> framed_;
  std::optional<ContainerBackend> containers_;
  StorageBackend* top_;
};

enum class OpenMode {
  kCreate,  ///< store/verify/serve: creates a missing repository
  kWrite,   ///< delete/gc: an existing repository; records an adoption
  kRead,    ///< restore/scrub/stats/fsck_cli: an existing one; writes nothing
};

/// An opened repository. Nothing under its root is written before the
/// first file() or stack() call, which writes a pending descriptor, so a
/// command can still refuse cleanly after opening.
class Repository {
 public:
  /// The invocation's EngineConfig with the repository's six values.
  const EngineConfig& config() const { return cfg_; }
  FileBackend& file();  ///< the physical layer (fsck's target)
  /// The stack over file(), built on first use: a command may repair the
  /// physical layer before the layers above it open.
  BackendStack& stack();

 private:
  friend Repository open_repository(const std::filesystem::path&,
                                    const Flags&, OpenMode);
  Repository(std::filesystem::path root, std::optional<StoreLock> lock,
             EngineConfig cfg, bool write_descriptor)
      : root_(std::move(root)), lock_(std::move(lock)), cfg_(std::move(cfg)),
        write_descriptor_(write_descriptor) {}

  std::filesystem::path root_;
  std::optional<StoreLock> lock_;  ///< held in kCreate and kWrite
  EngineConfig cfg_;
  bool write_descriptor_;
  std::optional<FileBackend> file_;
  std::optional<BackendStack> stack_;
};

/// Reads the engine flags (defaults ECS 4096, SD 64, Rabin), then the
/// repository at `root`. A path with neither a descriptor nor namespaces
/// holds none: kCreate creates one from the flags, the other modes throw
/// FlagError and create nothing. A repository older than descriptors is
/// adopted: its `framed` and `container-size` markers and index objects
/// give the layout, the flags the chunking. A given creation-time flag
/// that differs from the repository throws FlagError; an omitted one
/// takes the repository's value. A damaged descriptor throws StoreError.
Repository open_repository(const std::filesystem::path& root,
                           const Flags& flags, OpenMode mode);

}  // namespace mhd
