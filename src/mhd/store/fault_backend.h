// FaultInjectingBackend — deterministic storage-fault injection.
//
// A StorageBackend decorator that executes a scripted *fault plan* against
// the operation stream: the N-th mutating operation can fail cleanly, tear
// (persist only a prefix of its bytes, then report success — the silent
// partial write every crash-consistency bug starts with), or crash-stop
// the backend; the N-th read can raise a transient error. Because faults
// key off deterministic operation counters (never wall clock or real I/O
// timing), a failing scenario replays bit-for-bit from its plan string.
//
// The injector sits *below* FramedBackend in the stack, so injected
// damage lands in framed physical bytes and must be caught by CRC
// verification above — exactly the property the acceptance tests pin.
//
// Plan mini-language (comma-separated atoms; ops are 1-based):
//
//   fail@N       N-th mutating op throws BackendIoError, nothing persists
//   torn@N:F     N-th mutating op persists only fraction F (0..1) of its
//                bytes and reports success; torn@N draws F from the seed
//   crash@N      N-th mutating op crash-stops: nothing persists, this and
//                every later op throws CrashStopError
//   crash@N:F    as crash@N but the in-flight write tears to fraction F
//   readerr@N    N-th read (get/get_range) throws TransientReadError
//   readerr@NxM  reads N..N+M-1 all fail (tests bounded retry exhaustion)
//   seed:S       seed for drawn tear fractions (default 42)
//
// Mutating ops are put/append/remove; reads are get/get_range. exists,
// list, and the accounting queries are never faulted.
#pragma once

#include <optional>
#include <vector>

#include "mhd/store/backend.h"

namespace mhd {

struct FaultPlan {
  struct Tear {
    std::uint64_t op = 0;
    double fraction = -1.0;  ///< <0 means "draw from seed"
  };
  struct ReadErr {
    std::uint64_t first = 0;
    std::uint64_t count = 1;
  };

  std::vector<std::uint64_t> fail_ops;
  std::vector<Tear> torn_ops;
  std::optional<Tear> crash;
  std::vector<ReadErr> read_errors;
  std::uint64_t seed = 42;

  bool empty() const {
    return fail_ops.empty() && torn_ops.empty() && !crash &&
           read_errors.empty();
  }

  /// Parses the mini-language above; throws std::invalid_argument with the
  /// offending atom on malformed input. An empty spec is an empty plan.
  static FaultPlan parse(const std::string& spec);
};

class FaultInjectingBackend final : public StorageBackend {
 public:
  FaultInjectingBackend(StorageBackend& inner, FaultPlan plan);

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  std::uint64_t object_count(Ns ns) const override;
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;
  std::vector<LayoutDamage> layout_damage() const override {
    return inner_.layout_damage();
  }
  void seal(Ns ns, const std::string& name) override;

  bool crashed() const { return crashed_; }
  std::uint64_t mutation_ops() const { return mutations_; }
  std::uint64_t read_ops() const { return reads_; }

 private:
  /// Advances the mutation counter and applies the plan. Returns the tear
  /// fraction to apply (1.0 = write everything), or throws.
  double on_mutation();
  void on_read() const;
  double tear_fraction(const FaultPlan::Tear& tear) const;
  void check_crashed() const;

  StorageBackend& inner_;
  FaultPlan plan_;
  std::uint64_t mutations_ = 0;
  mutable std::uint64_t reads_ = 0;
  bool crashed_ = false;
};

}  // namespace mhd
