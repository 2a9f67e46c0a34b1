//===- tests/cache_backend_conformance.h - CacheBackend contract -*-C++-*-===//
//
// The backend-agnostic conformance suite for core/CacheBackend: every
// implementation — the local directory, a plain in-memory map, the
// wire-protocol client over a loopback fgbs_cached server, and the
// tiered composition — must pass the identical battery, because
// MeasurementCache treats them interchangeably.
//
// Usage: define a Harness type providing
//
//   struct MyHarness {
//     MyHarness();                  // bring up whatever the backend needs
//     CacheBackend &backend();      // the backend under test
//   };
//
// then instantiate:
//
//   INSTANTIATE_TYPED_TEST_SUITE_P(My, CacheBackendConformance, MyHarness);
//
//===----------------------------------------------------------------------===//

#ifndef FGBS_TESTS_CACHE_BACKEND_CONFORMANCE_H
#define FGBS_TESTS_CACHE_BACKEND_CONFORMANCE_H

#include "fgbs/core/CacheBackend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>

namespace fgbs {
namespace conformance {

/// The minimal correct backend: blobs in a map.  Doubles as the
/// reference implementation the suite is calibrated against and as the
/// "backend with no coordination needs" case (empty lock paths, no-op
/// writer locks from the base-class default).
class InMemoryBackend final : public CacheBackend {
public:
  bool exists(const std::string &Name) const override {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Blobs.count(Name) != 0;
  }

  bool get(const std::string &Name, std::string &BytesOut) const override {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto It = Blobs.find(Name);
    if (It == Blobs.end())
      return false;
    BytesOut = It->second;
    return true;
  }

  bool put(const std::string &Name, std::string_view Bytes) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    Blobs[Name] = std::string(Bytes);
    return true;
  }

  bool remove(const std::string &Name) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    return Blobs.erase(Name) != 0;
  }

  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override {
    std::lock_guard<std::mutex> Guard(Mutex);
    std::vector<CacheEntry> Out;
    for (const auto &[Name, Bytes] : Blobs) {
      if (Name.size() < Prefix.size() + Suffix.size() ||
          Name.compare(0, Prefix.size(), Prefix) != 0 ||
          Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) !=
              0)
        continue;
      CacheEntry E;
      E.Name = Name;
      E.SizeBytes = Bytes.size();
      Out.push_back(std::move(E));
    }
    return Out;
  }

  std::string lockPath(const std::string &) const override { return {}; }

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::string> Blobs;
};

/// A blob exercising every byte value, including NULs — backends must
/// be 8-bit clean (measurement entries are raw binary).
inline std::string binaryBlob(std::size_t Size) {
  std::string Out;
  Out.reserve(Size);
  for (std::size_t I = 0; I < Size; ++I)
    Out.push_back(static_cast<char>(I * 131 % 256));
  return Out;
}

template <typename Harness>
class CacheBackendConformance : public ::testing::Test {
protected:
  Harness H;
};

TYPED_TEST_SUITE_P(CacheBackendConformance);

TYPED_TEST_P(CacheBackendConformance, AbsentEntryBehaves) {
  CacheBackend &B = this->H.backend();
  EXPECT_FALSE(B.exists("fgbs-meas-00000000000000aa.v1"));
  std::string Bytes = "sentinel";
  EXPECT_FALSE(B.get("fgbs-meas-00000000000000aa.v1", Bytes));
  EXPECT_EQ(Bytes, "sentinel") << "a failed get must not clobber the buffer";
  EXPECT_FALSE(B.remove("fgbs-meas-00000000000000aa.v1"));
}

TYPED_TEST_P(CacheBackendConformance, BinaryRoundTrip) {
  CacheBackend &B = this->H.backend();
  const std::string Name = "fgbs-meas-00000000000000ab.v1";
  const std::string Blob = binaryBlob(4096);
  ASSERT_NE(Blob.find('\0'), std::string::npos);
  ASSERT_TRUE(B.put(Name, Blob));
  EXPECT_TRUE(B.exists(Name));
  std::string Loaded;
  ASSERT_TRUE(B.get(Name, Loaded));
  EXPECT_EQ(Loaded, Blob);
}

TYPED_TEST_P(CacheBackendConformance, OverwriteReplacesBytes) {
  CacheBackend &B = this->H.backend();
  const std::string Name = "fgbs-meas-00000000000000ac.v1";
  ASSERT_TRUE(B.put(Name, "first version"));
  ASSERT_TRUE(B.put(Name, "second"));
  std::string Loaded;
  ASSERT_TRUE(B.get(Name, Loaded));
  EXPECT_EQ(Loaded, "second");
}

TYPED_TEST_P(CacheBackendConformance, EmptyBlobIsAnEntry) {
  CacheBackend &B = this->H.backend();
  const std::string Name = "fgbs-meas-00000000000000ad.v1";
  ASSERT_TRUE(B.put(Name, ""));
  EXPECT_TRUE(B.exists(Name));
  std::string Loaded = "sentinel";
  ASSERT_TRUE(B.get(Name, Loaded));
  EXPECT_TRUE(Loaded.empty());
}

TYPED_TEST_P(CacheBackendConformance, RemoveDeletes) {
  CacheBackend &B = this->H.backend();
  const std::string Name = "fgbs-meas-00000000000000ae.v1";
  ASSERT_TRUE(B.put(Name, "bytes"));
  EXPECT_TRUE(B.remove(Name));
  EXPECT_FALSE(B.exists(Name));
  std::string Loaded;
  EXPECT_FALSE(B.get(Name, Loaded));
}

TYPED_TEST_P(CacheBackendConformance, ScanFiltersAndSizes) {
  CacheBackend &B = this->H.backend();
  ASSERT_TRUE(B.put("fgbs-meas-00000000000000b0.v1", binaryBlob(100)));
  ASSERT_TRUE(B.put("fgbs-meas-00000000000000b1.v1", binaryBlob(200)));
  ASSERT_TRUE(B.put("other-entry.bin", "unrelated"));

  std::vector<CacheEntry> Hits = B.scan("fgbs-meas-", ".v1");
  std::sort(Hits.begin(), Hits.end(),
            [](const CacheEntry &A, const CacheEntry &C) {
              return A.Name < C.Name;
            });
  ASSERT_EQ(Hits.size(), 2u);
  EXPECT_EQ(Hits[0].Name, "fgbs-meas-00000000000000b0.v1");
  EXPECT_EQ(Hits[0].SizeBytes, 100u);
  EXPECT_EQ(Hits[1].Name, "fgbs-meas-00000000000000b1.v1");
  EXPECT_EQ(Hits[1].SizeBytes, 200u);

  EXPECT_TRUE(B.scan("no-such-prefix-", ".v1").empty());
}

TYPED_TEST_P(CacheBackendConformance, LargeBlobRoundTrip) {
  CacheBackend &B = this->H.backend();
  const std::string Name = "fgbs-meas-00000000000000b2.v1";
  const std::string Blob = binaryBlob(1u << 20);
  ASSERT_TRUE(B.put(Name, Blob));
  std::string Loaded;
  ASSERT_TRUE(B.get(Name, Loaded));
  EXPECT_EQ(Loaded.size(), Blob.size());
  EXPECT_EQ(Loaded, Blob);
}

TYPED_TEST_P(CacheBackendConformance, LockPathContract) {
  CacheBackend &B = this->H.backend();
  // Either the backend points writers at a usable lock location, or it
  // opts out with an empty path (it brings its own atomicity).  A
  // non-empty path must differ from the entry name's own storage and be
  // stable across calls.
  const std::string Name = "fgbs-meas-00000000000000b3.v1";
  const std::string Path = B.lockPath(Name);
  EXPECT_EQ(Path, B.lockPath(Name));
  if (!Path.empty()) {
    EXPECT_NE(Path.find(Name), std::string::npos)
        << "a per-entry lock path should be derived from the entry name";
  }
}

TYPED_TEST_P(CacheBackendConformance, WriterLockCycle) {
  CacheBackend &B = this->H.backend();
  const std::string Name = "fgbs-meas-00000000000000b4.v1";
  std::unique_ptr<WriterLock> Lock = B.writerLock(Name);
  ASSERT_NE(Lock, nullptr);
  FileLock::Options O;
  O.TimeoutMs = 5000;
  FileLock::AcquireResult R = Lock->acquire(O);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Message;
  // Publishing while holding the election must work (the cold path of
  // buildMeasurementDatabase does exactly this).
  EXPECT_TRUE(B.put(Name, "published under the writer lock"));
  Lock->release();
  // Re-election after release must succeed promptly.
  std::unique_ptr<WriterLock> Again = B.writerLock(Name);
  FileLock::AcquireResult R2 = Again->acquire(O);
  EXPECT_TRUE(static_cast<bool>(R2)) << R2.Message;
  Again->release();
}

TYPED_TEST_P(CacheBackendConformance, NamespacedModelRoundTrip) {
  // model/ namespaced keys must behave exactly like flat entries:
  // binary-clean round trips, removable, invisible once removed.  The
  // directory backends, the server's among them, flat-encode the
  // separators; the in-memory one keys by name — either way the
  // contract is identical.
  CacheBackend &B = this->H.backend();
  const std::string Name =
      "model/conf-suite/sha/" + std::string(64, 'a');
  const std::string Blob = binaryBlob(2048);
  EXPECT_FALSE(B.exists(Name));
  ASSERT_TRUE(B.put(Name, Blob));
  EXPECT_TRUE(B.exists(Name));
  std::string Loaded;
  ASSERT_TRUE(B.get(Name, Loaded));
  EXPECT_EQ(Loaded, Blob);
  EXPECT_TRUE(B.remove(Name));
  EXPECT_FALSE(B.exists(Name));
}

TYPED_TEST_P(CacheBackendConformance, ScanPrefixEnumeratesNamesAndSizes) {
  CacheBackend &B = this->H.backend();
  const std::string ShaA = "model/conf-alpha/sha/" + std::string(64, 'b');
  const std::string ShaB = "model/conf-alpha/sha/" + std::string(64, 'c');
  const std::string Ref = "model/conf-alpha/ref/latest";
  const std::string Other = "model/conf-beta/sha/" + std::string(64, 'd');
  ASSERT_TRUE(B.put(ShaA, binaryBlob(300)));
  ASSERT_TRUE(B.put(ShaB, binaryBlob(500)));
  ASSERT_TRUE(B.put(Ref, "ref-bytes"));
  ASSERT_TRUE(B.put(Other, binaryBlob(700)));

  ScanPrefixResult R = B.scanPrefix("model/conf-alpha/");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Message;
  std::sort(R.Entries.begin(), R.Entries.end(),
            [](const CacheEntry &A, const CacheEntry &C) {
              return A.Name < C.Name;
            });
  ASSERT_EQ(R.Entries.size(), 3u);
  EXPECT_EQ(R.Entries[0].Name, Ref);
  EXPECT_EQ(R.Entries[1].Name, ShaA);
  EXPECT_EQ(R.Entries[1].SizeBytes, 300u);
  EXPECT_EQ(R.Entries[2].Name, ShaB);
  EXPECT_EQ(R.Entries[2].SizeBytes, 500u);

  // A narrower prefix keeps only the sub-tree.
  ScanPrefixResult Shas = B.scanPrefix("model/conf-alpha/sha/");
  ASSERT_TRUE(static_cast<bool>(Shas)) << Shas.Message;
  EXPECT_EQ(Shas.Entries.size(), 2u);
}

TYPED_TEST_P(CacheBackendConformance, ScanPrefixEmptyIsAuthoritative) {
  // "Nothing under that prefix" must come back as Ok-with-no-entries —
  // the caller distinguishes an authoritative empty listing from a dead
  // or refusing server (Failed).
  CacheBackend &B = this->H.backend();
  ScanPrefixResult R = B.scanPrefix("model/conf-absent/");
  EXPECT_EQ(R.Outcome, ScanPrefixOutcome::Ok) << R.Message;
  EXPECT_TRUE(R.Entries.empty());
}

TYPED_TEST_P(CacheBackendConformance, ShortPrefixesSpanNamespaces) {
  // A prefix that `model/` itself starts with matches model entries as
  // well as flat ones; a server that walks only one namespace for it
  // lists fewer entries than a directory holding the same names.
  CacheBackend &B = this->H.backend();
  const std::string Model = "model/conf-short/sha/" + std::string(64, 'e');
  const std::string Flat = "fgbs-meas-00000000000000b5.v1";
  ASSERT_TRUE(B.put(Model, "model bytes"));
  ASSERT_TRUE(B.put(Flat, "flat bytes"));
  for (const char *Prefix : {"m", "mod", "model"}) {
    std::vector<CacheEntry> Hits = B.scan(Prefix, "");
    ASSERT_EQ(Hits.size(), 1u) << "prefix '" << Prefix << "'";
    EXPECT_EQ(Hits[0].Name, Model) << "prefix '" << Prefix << "'";
  }
  EXPECT_EQ(B.scan("", "").size(), 2u);
  ScanPrefixResult All = B.scanPrefix("");
  ASSERT_TRUE(static_cast<bool>(All)) << All.Message;
  EXPECT_EQ(All.Entries.size(), 2u);
}

REGISTER_TYPED_TEST_SUITE_P(CacheBackendConformance, AbsentEntryBehaves,
                            BinaryRoundTrip, OverwriteReplacesBytes,
                            EmptyBlobIsAnEntry, RemoveDeletes,
                            ScanFiltersAndSizes, LargeBlobRoundTrip,
                            LockPathContract, WriterLockCycle,
                            NamespacedModelRoundTrip,
                            ScanPrefixEnumeratesNamesAndSizes,
                            ScanPrefixEmptyIsAuthoritative,
                            ShortPrefixesSpanNamespaces);

} // namespace conformance
} // namespace fgbs

#endif // FGBS_TESTS_CACHE_BACKEND_CONFORMANCE_H
