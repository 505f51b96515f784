// StoreLock — single-writer protection for an on-disk repository.
//
// Two processes mutating one store directory corrupt it in ways framing
// cannot catch (both adopt the same open container id, both sweep the
// other's fresh tmp files as orphans, both rewrite the index meta). The
// lock file makes that failure mode a fast, typed error instead of a
// silent race:
//
//   * acquire() creates `<root>/store.lock` with O_EXCL, recording the
//     holder's PID. A second acquire — from this or any other process —
//     throws StoreLockedError naming the holder.
//   * A lock whose recorded PID no longer exists (the holder crashed
//     without unlinking) is STALE: it is silently replaced, so one crash
//     never bricks a repository. Malformed lock files count as stale.
//   * Releasing (destructor or release()) unlinks the file. Only the
//     owning acquisition unlinks; a moved-from lock is inert.
//
// Readers (restore/stats/fsck_cli check) do not take the lock: they never
// mutate, and a half-written object is detected by framing, not by
// locking.
#pragma once

#include <filesystem>
#include <string>

#include "mhd/store/store_errors.h"

namespace mhd {

/// Another live process holds the store's write lock.
class StoreLockedError : public StoreError {
 public:
  StoreLockedError(std::string lock_path, long holder_pid)
      : StoreError("store is locked by pid " + std::to_string(holder_pid) +
                   " (" + lock_path + "); remove the lock file only if that "
                   "process is gone"),
        lock_path_(std::move(lock_path)),
        holder_pid_(holder_pid) {}

  const std::string& lock_path() const { return lock_path_; }
  long holder_pid() const { return holder_pid_; }

 private:
  std::string lock_path_;
  long holder_pid_;
};

class StoreLock {
 public:
  /// Takes the write lock of the repository at `root` (creating the
  /// directory if needed). Throws StoreLockedError when a live process
  /// holds it; adopts (replaces) a stale lock left by a dead one.
  static StoreLock acquire(const std::filesystem::path& root);

  /// Name of the lock file inside a repository root.
  static constexpr const char* kFileName = "store.lock";

  StoreLock(StoreLock&& other) noexcept;
  StoreLock& operator=(StoreLock&&) = delete;
  StoreLock(const StoreLock&) = delete;
  StoreLock& operator=(const StoreLock&) = delete;
  ~StoreLock();

  /// Unlinks the lock file early. Idempotent.
  void release();

  const std::string& path() const { return path_; }

 private:
  explicit StoreLock(std::string path) : path_(std::move(path)) {}

  std::string path_;  ///< empty = released / moved-from
};

/// True when `pid` names a live process (the stale-lock probe).
bool process_alive(long pid);

}  // namespace mhd
