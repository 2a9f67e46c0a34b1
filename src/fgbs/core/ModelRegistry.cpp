//===- fgbs/core/ModelRegistry.cpp - Model artifact distribution ----------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/ModelRegistry.h"

#include "fgbs/net/Socket.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Sha256.h"

#include <ctime>

using namespace fgbs;
using namespace fgbs::binio;

namespace {

constexpr framed::Format kModelRefFormat = {
    kModelRefMagic, kModelRefVersionMajor, "fgbs.ref.v1 ref"};

} // namespace

std::string fgbs::serializeModelRef(const ModelRef &R) {
  std::string Out = framed::blank();
  putStr(Out, R.Sha256Hex);
  putU64(Out, R.SnapshotBytes);
  putU64(Out, R.PublishedUnixSeconds);
  framed::seal(Out, kModelRefFormat, kModelRefVersionMinor);
  return Out;
}

bool fgbs::parseModelRef(std::string_view Bytes, ModelRef &Out,
                         std::string *Error) {
  auto Fail = [&](std::string Why) {
    if (Error)
      *Error = std::move(Why);
    return false;
  };
  // The minor version is additive and ignored: a ref's payload is
  // always exactly the three fields below.
  const framed::Opened Blob = framed::open(Bytes, kModelRefFormat);
  if (!Blob)
    return Fail(framed::describe(Blob, kModelRefFormat));
  ByteReader In(Blob.Payload);
  ModelRef R;
  R.Sha256Hex = In.str();
  R.SnapshotBytes = In.u64();
  R.PublishedUnixSeconds = In.u64();
  if (In.overrun() || !In.atEnd())
    return Fail("malformed ref payload");
  if (!isSha256Hex(R.Sha256Hex))
    return Fail("ref names a malformed hash");
  Out = std::move(R);
  return true;
}

bool fgbs::isValidModelName(std::string_view Name) {
  return Name.size() <= 100 && isValidNameSegment(Name);
}

bool fgbs::isValidModelTag(std::string_view Tag) {
  return Tag.size() <= 100 && isValidNameSegment(Tag);
}

std::string fgbs::modelShaKey(const std::string &Name,
                              const std::string &Hex) {
  return "model/" + Name + "/sha/" + Hex;
}

std::string fgbs::modelRefKey(const std::string &Name,
                              const std::string &Tag) {
  return "model/" + Name + "/ref/" + Tag;
}

bool fgbs::parseModelUri(const std::string &Uri, ModelUri &Out,
                         std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    return false;
  };
  constexpr std::string_view Scheme = "fgbs://";
  if (Uri.size() <= Scheme.size() ||
      std::string_view(Uri).substr(0, Scheme.size()) != Scheme)
    return Fail("model URI must start with fgbs://");
  const std::string Rest = Uri.substr(Scheme.size());
  const std::size_t Slash = Rest.find('/');
  if (Slash == std::string::npos || Slash == 0)
    return Fail("model URI needs host:port/<name>");
  std::string Path = Rest.substr(Slash + 1);
  ModelUri U;
  if (!net::parseHostPort(Rest.substr(0, Slash), U.Host, U.Port))
    return Fail("model URI address must be host:port, port 1-65535");
  // The selector is everything after the last '@' (names cannot carry
  // '@', so the first is also the last).
  const std::size_t At = Path.rfind('@');
  std::string Selector;
  if (At != std::string::npos) {
    Selector = Path.substr(At + 1);
    Path = Path.substr(0, At);
    if (Selector.empty())
      return Fail("model URI has '@' but no tag or hash after it");
  }
  if (!isValidModelName(Path))
    return Fail("model URI name '" + Path + "' is invalid");
  U.Name = Path;
  if (Selector.empty()) {
    U.Tag = "latest";
  } else if (std::string_view(Selector).substr(0, 7) == "sha256:") {
    U.Sha256Hex = Selector.substr(7);
    if (!isSha256Hex(U.Sha256Hex))
      return Fail("model URI hash must be 64 lowercase hex digits");
  } else {
    if (!isValidModelTag(Selector))
      return Fail("model URI tag '" + Selector + "' is invalid");
    U.Tag = Selector;
  }
  Out = std::move(U);
  return true;
}

const char *fgbs::registryErrorName(RegistryError E) {
  switch (E) {
  case RegistryError::None:
    return "none";
  case RegistryError::InvalidName:
    return "invalid_name";
  case RegistryError::InvalidTag:
    return "invalid_tag";
  case RegistryError::InvalidHash:
    return "invalid_hash";
  case RegistryError::Unreachable:
    return "unreachable";
  case RegistryError::RefNotFound:
    return "ref_not_found";
  case RegistryError::RefMalformed:
    return "ref_malformed";
  case RegistryError::DanglingRef:
    return "dangling_ref";
  case RegistryError::HashMismatch:
    return "hash_mismatch";
  case RegistryError::PublishFailed:
    return "publish_failed";
  case RegistryError::RefPublishFailed:
    return "ref_publish_failed";
  }
  return "unknown";
}

ModelRegistry::ModelRegistry(std::unique_ptr<CacheBackend> Remote,
                             std::string LocalCacheDir)
    : Remote(std::move(Remote)) {
  if (!LocalCacheDir.empty())
    Local = std::make_unique<LocalDirBackend>(std::move(LocalCacheDir));
}

bool ModelRegistry::loadVerifiedLocal(const std::string &Name,
                                      const std::string &Hex,
                                      std::string &BytesOut) {
  const std::string Key = modelShaKey(Name, Hex);
  std::string Bytes;
  if (!Local || !Local->get(Key, Bytes))
    return false;
  // EVERY load re-verifies: the local cache is convenience, not trust.
  if (sha256Hex(Bytes) != Hex) {
    FGBS_COUNTER_ADD("registry.verify_failures", 1);
    Local->remove(Key);
    return false;
  }
  BytesOut = std::move(Bytes);
  return true;
}

void ModelRegistry::memoize(const std::string &Key, std::string_view Bytes) {
  // A warm pull resolves the ref the memo already holds: leave that file
  // as it is rather than replace it with a copy of itself.
  std::string Held;
  if (Local && !(Local->get(Key, Held) && Held == Bytes))
    Local->put(Key, Bytes);
}

PublishResult ModelRegistry::publish(const std::string &Name,
                                     const std::string &Tag,
                                     std::string_view SnapshotBytes) {
  PublishResult Out;
  if (!isValidModelName(Name)) {
    Out.Error = RegistryError::InvalidName;
    Out.Message = "invalid model name '" + Name + "'";
    return Out;
  }
  if (!isValidModelTag(Tag)) {
    Out.Error = RegistryError::InvalidTag;
    Out.Message = "invalid model tag '" + Tag + "'";
    return Out;
  }
  Out.Sha256Hex = sha256Hex(SnapshotBytes);
  const std::string ShaKey = modelShaKey(Name, Out.Sha256Hex);
  const std::string RefKey = modelRefKey(Name, Tag);

  // Snapshot first.  Content-addressed keys make re-publish idempotent:
  // identical bytes are one blob, and a crash after this step leaves an
  // unreferenced blob, never a dangling tag.
  Out.SnapshotAlreadyPresent = Remote->exists(ShaKey);
  if (!Out.SnapshotAlreadyPresent && !Remote->put(ShaKey, SnapshotBytes)) {
    Out.Error = RegistryError::PublishFailed;
    Out.Message = "cannot publish snapshot blob " + ShaKey;
    return Out;
  }

  // Then the ref.  It is written whole, never read and modified, and
  // the backend's put is atomic, so racing publishers end as whole-ref
  // last-writer-wins.
  ModelRef Ref;
  Ref.Sha256Hex = Out.Sha256Hex;
  Ref.SnapshotBytes = SnapshotBytes.size();
  Ref.PublishedUnixSeconds =
      static_cast<std::uint64_t>(std::time(nullptr));
  if (!Remote->put(RefKey, serializeModelRef(Ref))) {
    Out.Error = RegistryError::RefPublishFailed;
    Out.Message = "cannot publish ref " + RefKey;
    return Out;
  }
  // Memoize what we just published so this host's pulls are warm from
  // the start (and survive the registry dying later).
  memoize(ShaKey, SnapshotBytes);
  memoize(RefKey, serializeModelRef(Ref));
  FGBS_COUNTER_ADD("registry.publishes", 1);
  return Out;
}

PullResult ModelRegistry::fetchByHash(const std::string &Name,
                                      const std::string &Hex,
                                      bool RegistryHealthy) {
  PullResult Out;
  Out.Sha256Hex = Hex;
  // Warm path: the local read-through copy, verified.
  if (loadVerifiedLocal(Name, Hex, Out.Bytes))
    return Out;
  const std::string ShaKey = modelShaKey(Name, Hex);
  std::string Bytes;
  if (!Remote->get(ShaKey, Bytes)) {
    if (!RegistryHealthy) {
      Out.Error = RegistryError::Unreachable;
      Out.Message = "registry unreachable and no local copy of " + ShaKey;
      return Out;
    }
    Out.Error = RegistryError::DanglingRef;
    Out.Message = "snapshot " + ShaKey +
                  " is gone (pruned or never fully published)";
    return Out;
  }
  if (sha256Hex(Bytes) != Hex) {
    // A tampered or damaged payload is never surfaced to the caller.
    FGBS_COUNTER_ADD("registry.verify_failures", 1);
    Out.Error = RegistryError::HashMismatch;
    Out.Message = "payload of " + ShaKey + " does not match its hash";
    return Out;
  }
  FGBS_COUNTER_ADD("registry.snapshot_fetches", 1);
  Out.FetchedFromRemote = true;
  memoize(ShaKey, Bytes);
  Out.Bytes = std::move(Bytes);
  return Out;
}

PullResult ModelRegistry::pull(const std::string &Name,
                               const std::string &Tag) {
  PullResult Out;
  if (!isValidModelName(Name)) {
    Out.Error = RegistryError::InvalidName;
    Out.Message = "invalid model name '" + Name + "'";
    return Out;
  }
  if (!isValidModelTag(Tag)) {
    Out.Error = RegistryError::InvalidTag;
    Out.Message = "invalid model tag '" + Tag + "'";
    return Out;
  }
  FGBS_COUNTER_ADD("registry.pulls", 1);
  const std::string RefKey = modelRefKey(Name, Tag);
  std::string RefBytes;
  ModelRef Ref;
  std::string RefError;
  if (Remote->get(RefKey, RefBytes)) {
    if (!parseModelRef(RefBytes, Ref, &RefError)) {
      Out.Error = RegistryError::RefMalformed;
      Out.Message = RefKey + ": " + RefError;
      return Out;
    }
    memoize(RefKey, RefBytes);
    FGBS_COUNTER_ADD("registry.ref_hits", 1);
    PullResult Fetched = fetchByHash(Name, Ref.Sha256Hex,
                                     /*RegistryHealthy=*/true);
    return Fetched;
  }
  // The ref did not come back.  "The registry says there is no such
  // tag" and "the registry is down" demand opposite reactions, so probe
  // health before deciding.
  if (Remote->healthy()) {
    Out.Error = RegistryError::RefNotFound;
    Out.Message = "no ref " + RefKey + " in the registry";
    return Out;
  }
  if (Local && Local->get(RefKey, RefBytes) &&
      parseModelRef(RefBytes, Ref, &RefError)) {
    std::string Bytes;
    if (loadVerifiedLocal(Name, Ref.Sha256Hex, Bytes)) {
      FGBS_COUNTER_ADD("registry.degraded", 1);
      Out.Degraded = true;
      Out.Sha256Hex = Ref.Sha256Hex;
      Out.Bytes = std::move(Bytes);
      return Out;
    }
  }
  Out.Error = RegistryError::Unreachable;
  Out.Message = "registry " + RefKey +
                " unreachable and no memoized local copy";
  return Out;
}

PullResult ModelRegistry::pullByHash(const std::string &Name,
                                     const std::string &Hex) {
  PullResult Out;
  if (!isValidModelName(Name)) {
    Out.Error = RegistryError::InvalidName;
    Out.Message = "invalid model name '" + Name + "'";
    return Out;
  }
  if (!isSha256Hex(Hex)) {
    Out.Error = RegistryError::InvalidHash;
    Out.Message = "'" + Hex + "' is not a SHA-256 hex digest";
    return Out;
  }
  FGBS_COUNTER_ADD("registry.pulls", 1);
  // An explicit hash needs no ref resolution; only if the blob is
  // neither local nor fetchable does health matter (for the error
  // type).  Probe lazily to keep the warm path network-free.
  PullResult Fetched = fetchByHash(Name, Hex, /*RegistryHealthy=*/true);
  if (Fetched.Error == RegistryError::DanglingRef && !Remote->healthy()) {
    Fetched.Error = RegistryError::Unreachable;
    Fetched.Message = "registry unreachable and no local copy of " +
                      modelShaKey(Name, Hex);
  }
  return Fetched;
}

ScanPrefixResult ModelRegistry::list(const std::string &Name) const {
  return Remote->scanPrefix(Name.empty() ? std::string("model/")
                                         : "model/" + Name + "/");
}
