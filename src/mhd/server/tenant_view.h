// TenantView — per-tenant namespace isolation over a shared backend.
//
// The daemon runs every tenant against one physical repository. Isolation
// is by name: a TenantView prefixes every object name with `<tenant>.`
// in every namespace, so tenants cannot observe or collide with each
// other's chunks, hooks, manifests, file manifests, index objects — the
// whole store. Consequences, by design:
//
//   * no cross-tenant deduplication (identical data stored by two tenants
//     is stored twice) — isolation beats ratio here, and it makes
//     "N parallel tenants == N serial runs" a well-defined bit-level
//     equivalence the tests assert;
//   * the index tiers are per tenant too (their warm lists, aux blobs and
//     sampled-* objects carry the prefix), so engines opened for different
//     tenants never share index state;
//   * container packing happens BELOW this layer, so physical containers
//     may interleave chunks of different tenants — shared bandwidth,
//     private namespaces.
//
// The tenant id alphabet is enforced at the protocol boundary
// (server::validate_tenant); '.' is the one separator this prefix scheme
// reserves (see store/scoped_backend.h, which does the prefixing).
#pragma once

#include <string>

#include "mhd/store/scoped_backend.h"
#include "mhd/store/store_errors.h"

namespace mhd::server {

/// Per-tenant ingest limits; 0 = unlimited.
struct TenantQuota {
  std::uint64_t max_logical_bytes = 0;  ///< sum of ingested file sizes
  std::uint64_t max_files = 0;          ///< stored files (FileManifests)
};

/// A PUT would push the tenant past its quota. The ingest is aborted;
/// partially written chunks become garbage for the next gc pass.
class QuotaExceededError : public StoreError {
 public:
  QuotaExceededError(const std::string& tenant, const std::string& what)
      : StoreError("tenant '" + tenant + "' quota exceeded: " + what) {}
};

/// The tenant's scope of `inner`: every name gets the prefix `<tenant>.`.
class TenantView final : public ScopedBackend {
 public:
  TenantView(StorageBackend& inner, const std::string& tenant)
      : ScopedBackend(inner, tenant + ".") {}
};

/// One stored file as seen through a tenant view.
struct TenantFile {
  std::string name;
  std::uint64_t bytes = 0;
};

/// Walks the tenant's FileManifests (objects are named by the hash of the
/// file name, so the payloads must be read to recover names). Seeds quota
/// accounting on a tenant's first touch and backs the `ls` RPC.
std::vector<TenantFile> scan_tenant_files(const StorageBackend& view);

}  // namespace mhd::server
