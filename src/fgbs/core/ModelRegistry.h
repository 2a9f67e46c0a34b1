//===- fgbs/core/ModelRegistry.h - Model artifact distribution -*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed distribution of fgbs.model.v1 snapshots through the
/// cache tier's model/ namespace, so a fleet of fgbs_query hosts pulls
/// one canonical artifact instead of copying files around (the paper's
/// subset is only useful if every consumer ranks machines with the
/// *same* bytes).
///
/// Key layout inside the registry backend:
///
///   model/<name>/sha/<hex>   the snapshot image, keyed by its SHA-256
///                            (immutable; two publishes of identical
///                            bytes are one blob)
///   model/<name>/ref/<tag>   a small fgbs.ref.v1 blob naming the hash
///                            a tag (e.g. "latest") points at, replaced
///                            whole by one atomic put
///
/// Ref blob layout (fgbs.ref.v1): the 28-byte support/FramedBlob header
/// (magic "FGBSREF1", version major 1, minor 0, payload size, CRC-32 of
/// the payload), then the payload: str sha256-hex, u64 snapshot size in
/// bytes, u64 publish time (unix seconds), all little-endian.
///
/// Publish ordering is snapshot-then-ref: the blob is fully published
/// (and verified present) before any tag names it, so a publisher that
/// crashes mid-way leaves at worst an unreferenced blob — never a tag
/// pointing at bytes that do not exist.  A publish writes a fresh ref
/// rather than modifying the old one, and the backend's put is atomic,
/// so concurrent publishers end as whole-ref last-writer-wins (readers
/// see the old ref or the new one, never a splice).
///
/// Pulls are read-through: a resolved snapshot and its ref are memoized
/// in a local cache directory, a LocalDirBackend holding the same keys
/// as the registry (the flat layout of a --cache directory and of the
/// server's root), and the snapshot is re-verified against its hash on
/// EVERY load, so one host fetches a given snapshot's payload once, and
/// a tampered or rotted local file is detected, discarded, and
/// re-fetched rather than served.  When the registry is unreachable,
/// pull() degrades to the memoized local ref + blob if this host has
/// them (counted, flagged); missing entries on a *healthy* registry are
/// authoritative errors (dangling ref, unknown tag), never degraded
/// around.
///
/// Counters: registry.{publishes,pulls,ref_hits,snapshot_fetches,
/// verify_failures,degraded}.  "Warm pull by tag" is one ref round trip
/// and zero payload bytes over the network: pulls and ref_hits tick,
/// snapshot_fetches does not.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_MODELREGISTRY_H
#define FGBS_CORE_MODELREGISTRY_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/support/FramedBlob.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fgbs {

/// Leading bytes of every fgbs.ref.v1 blob.
inline constexpr char kModelRefMagic[8] = {'F', 'G', 'B', 'S',
                                           'R', 'E', 'F', '1'};
inline constexpr std::uint32_t kModelRefVersionMajor = 1;
inline constexpr std::uint32_t kModelRefVersionMinor = 0;
inline constexpr std::size_t kModelRefHeaderBytes = framed::kHeaderBytes;

/// What a tag points at.
struct ModelRef {
  /// Content address of the snapshot (64 lowercase hex digits).
  std::string Sha256Hex;
  /// Size of the snapshot image, for display and sanity checks.
  std::uint64_t SnapshotBytes = 0;
  /// When the ref was written (unix seconds).
  std::uint64_t PublishedUnixSeconds = 0;
};

/// Renders \p R as an fgbs.ref.v1 blob.
std::string serializeModelRef(const ModelRef &R);

/// Parses and validates an fgbs.ref.v1 blob; false (with \p Error
/// filled) on damage, version skew, or a malformed hash.
bool parseModelRef(std::string_view Bytes, ModelRef &Out, std::string *Error);

/// A parsed `fgbs://host:port/<name>[@tag|@sha256:<hex>]` reference.
/// Exactly one of Tag / Sha256Hex is non-empty; an unadorned URI means
/// Tag = "latest".
struct ModelUri {
  std::string Host;
  std::uint16_t Port = 0;
  std::string Name;
  std::string Tag;
  std::string Sha256Hex;
};

/// Parses an fgbs:// model URI.  False (with \p Error filled) when the
/// scheme, address, name, or selector is malformed.
bool parseModelUri(const std::string &Uri, ModelUri &Out, std::string *Error);

/// The registry keys for a model's blobs (valid inputs assumed; see
/// isValidModelName / isValidModelTag).
std::string modelShaKey(const std::string &Name, const std::string &Hex);
std::string modelRefKey(const std::string &Name, const std::string &Tag);

/// Model names and tags are single namespaced path segments:
/// `[A-Za-z0-9._-]+`, not "." or "..", at most 100 bytes (the composed
/// wire key must stay under the server's 255-byte entry limit).
bool isValidModelName(std::string_view Name);
bool isValidModelTag(std::string_view Tag);

/// Why a registry operation failed.
enum class RegistryError {
  None,             ///< Success.
  InvalidName,      ///< Model name fails isValidModelName.
  InvalidTag,       ///< Tag fails isValidModelTag.
  InvalidHash,      ///< Explicit hash is not 64 lowercase hex digits.
  Unreachable,      ///< Registry down and no usable local copy.
  RefNotFound,      ///< Healthy registry has no such tag.
  RefMalformed,     ///< The ref blob failed fgbs.ref.v1 validation.
  DanglingRef,      ///< Tag resolves to a hash whose snapshot is gone
                    ///< (pruned or never fully published).
  HashMismatch,     ///< Pulled payload does not hash to its key; it is
                    ///< never returned to the caller.
  PublishFailed,    ///< Snapshot blob could not be stored remotely.
  RefPublishFailed, ///< Ref blob could not be stored remotely.
};

/// Stable identifier for an error (messages and tests key on it).
const char *registryErrorName(RegistryError E);

/// Outcome of publish().
struct PublishResult {
  RegistryError Error = RegistryError::None;
  std::string Message;
  /// Content address of the published snapshot.
  std::string Sha256Hex;
  /// True when the blob already existed remotely (same bytes published
  /// before); only the ref moved.
  bool SnapshotAlreadyPresent = false;

  explicit operator bool() const { return Error == RegistryError::None; }
};

/// Outcome of pull()/pullByHash().
struct PullResult {
  RegistryError Error = RegistryError::None;
  std::string Message;
  /// The verified snapshot image (empty on error).
  std::string Bytes;
  /// Its content address.
  std::string Sha256Hex;
  /// True when the registry was unreachable and the memoized local
  /// copy served instead.
  bool Degraded = false;
  /// True when the payload crossed the network this call (a cold pull);
  /// false for warm pulls satisfied from the local cache dir.
  bool FetchedFromRemote = false;

  explicit operator bool() const { return Error == RegistryError::None; }
};

/// The client: publish/pull model snapshots against any CacheBackend
/// that accepts model/ namespaced keys (RemoteCacheBackend against a
/// live fgbs_cached in production; local/in-memory backends in tests).
class ModelRegistry {
public:
  /// \p Remote is the registry backend; \p LocalCacheDir is this host's
  /// read-through snapshot cache (created on first use; may be empty to
  /// disable local caching — every pull then fetches).
  ModelRegistry(std::unique_ptr<CacheBackend> Remote,
                std::string LocalCacheDir);

  CacheBackend &remote() { return *Remote; }

  /// Publishes \p SnapshotBytes as \p Name and points \p Tag at it,
  /// snapshot-then-ref.  Idempotent for identical bytes.
  PublishResult publish(const std::string &Name, const std::string &Tag,
                        std::string_view SnapshotBytes);

  /// Resolves \p Tag, then fetches + verifies the snapshot it names
  /// (local cache first).  Registry down: serves the memoized local
  /// copy if present (Degraded), else Unreachable.
  PullResult pull(const std::string &Name, const std::string &Tag);

  /// Fetches + verifies a snapshot by explicit content address; no ref
  /// resolution, so a warm pull touches no network at all.
  PullResult pullByHash(const std::string &Name, const std::string &Hex);

  /// Enumerates `model/<name>/` keys (names only) via the backend's
  /// scanPrefix; empty \p Name lists every model.  Outcome semantics
  /// follow ScanPrefixResult (a server that refuses yields Failed).
  ScanPrefixResult list(const std::string &Name) const;

private:
  /// Loads the memoized snapshot of \p Name for \p Hex, verifying its
  /// hash; a mismatching entry is counted, deleted, and reported absent.
  bool loadVerifiedLocal(const std::string &Name, const std::string &Hex,
                         std::string &BytesOut);
  /// Stores a verified snapshot or ref under its registry key in the
  /// local memo, unless the memo already holds exactly these bytes.
  void memoize(const std::string &Key, std::string_view Bytes);
  /// The shared fetch+verify tail of both pull paths.
  PullResult fetchByHash(const std::string &Name, const std::string &Hex,
                         bool RegistryHealthy);

  std::unique_ptr<CacheBackend> Remote;
  /// The local memo; null when local caching is disabled.
  std::unique_ptr<LocalDirBackend> Local;
};

} // namespace fgbs

#endif // FGBS_CORE_MODELREGISTRY_H
