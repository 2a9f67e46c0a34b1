//===- fgbs/core/CacheBackend.cpp - Measurement-cache storage -------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/CacheBackend.h"

#include "fgbs/obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace fgbs;

namespace fs = std::filesystem;

std::unique_ptr<WriterLock>
CacheBackend::writerLock(const std::string &Name) {
  return std::make_unique<FileLock>(lockPath(Name));
}

ScanPrefixResult CacheBackend::scanPrefix(const std::string &Prefix) const {
  ScanPrefixResult R;
  R.Entries = scan(Prefix, "");
  return R;
}

bool fgbs::atomicWriteFile(const std::string &Path, std::string_view Bytes) {
  // Unique per process AND per call so two stores of one name never
  // share a temp file; the temp sits next to its target, keeping the
  // final rename within one filesystem and therefore atomic.
  static std::atomic<std::uint64_t> Serial{0};
  std::string Temp = Path + ".tmp." +
                     std::to_string(static_cast<long>(::getpid())) + "." +
                     std::to_string(Serial.fetch_add(1));
  {
    std::ofstream OS(Temp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    OS.flush();
    if (!OS) {
      OS.close();
      std::error_code Ec;
      fs::remove(Temp, Ec);
      return false;
    }
  }
  std::error_code Ec;
  fs::rename(Temp, Path, Ec);
  if (Ec) {
    fs::remove(Temp, Ec);
    return false;
  }
  return true;
}

namespace {

/// readWholeFile(), and when \p Refresh is set, a file whose mtime is
/// kEntryRefreshSeconds or more old (judged from the fstat the read
/// makes anyway) gets the current time as its mtime.
bool readRegularFile(const std::string &Path, std::string &BytesOut,
                     bool Refresh) {
  // O_NONBLOCK: a FIFO in an entry's place must not hang the reader.
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  std::string Bytes;
  if (Ok) {
    Bytes.resize(static_cast<std::size_t>(St.st_size));
    std::size_t Done = 0;
    while (Done < Bytes.size()) {
      const ssize_t N = ::read(Fd, Bytes.data() + Done, Bytes.size() - Done);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Ok = N == 0; // End of file early: the file shrank.
        break;
      }
      Done += static_cast<std::size_t>(N);
    }
    Bytes.resize(Done);
  }
  // Best effort: an entry this user may not stamp (a shared read-only
  // directory) still loads; it just ages as if unread.
  if (Ok && Refresh && std::time(nullptr) - St.st_mtime >= kEntryRefreshSeconds)
    ::futimens(Fd, nullptr);
  ::close(Fd);
  if (Ok)
    BytesOut = std::move(Bytes);
  return Ok;
}

} // namespace

bool fgbs::readWholeFile(const std::string &Path, std::string &BytesOut) {
  return readRegularFile(Path, BytesOut, /*Refresh=*/false);
}

LocalDirBackend::LocalDirBackend(std::string Dir) : Dir(std::move(Dir)) {
  // Eager so lock files can be created before the first put(); the
  // error-code overload tolerates concurrent creators.
  std::error_code Ec;
  fs::create_directories(this->Dir, Ec);
}

std::string LocalDirBackend::encodeFileName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (C == '/')
      C = '~';
  return Out;
}

std::string LocalDirBackend::decodeFileName(const std::string &FileName) {
  std::string Out = FileName;
  for (char &C : Out)
    if (C == '~')
      C = '/';
  return Out;
}

bool fgbs::isValidNameSegment(std::string_view Seg) {
  if (Seg.empty() || Seg == "." || Seg == "..")
    return false;
  for (char C : Seg)
    if (!((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
          (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-'))
      return false;
  return true;
}

std::string LocalDirBackend::fullPath(const std::string &Name) const {
  return (fs::path(Dir) / encodeFileName(Name)).string();
}

bool LocalDirBackend::exists(const std::string &Name) const {
  std::error_code Ec;
  return fs::exists(fullPath(Name), Ec);
}

bool LocalDirBackend::get(const std::string &Name,
                          std::string &BytesOut) const {
  return readRegularFile(fullPath(Name), BytesOut, /*Refresh=*/true);
}

bool LocalDirBackend::put(const std::string &Name, std::string_view Bytes) {
  // '~' is the '/' escape in on-disk names; a raw '~' would collide
  // with an encoded entry and decode to a different name on scan.
  if (Name.find('~') != std::string::npos)
    return false;
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  return atomicWriteFile(fullPath(Name), Bytes);
}

bool LocalDirBackend::remove(const std::string &Name) {
  std::error_code Ec;
  return fs::remove(fullPath(Name), Ec) && !Ec;
}

std::vector<CacheEntry> LocalDirBackend::scan(const std::string &Prefix,
                                              const std::string &Suffix) const {
  std::vector<CacheEntry> Out;
  std::error_code Ec;
  fs::directory_iterator It(Dir, Ec), End;
  if (Ec)
    return Out;
  const std::time_t Now = std::time(nullptr);
  for (; It != End; It.increment(Ec)) {
    if (Ec)
      break;
    if (!It->is_regular_file(Ec))
      continue;
    std::string FileName = It->path().filename().string();
    // atomicWriteFile() temp files are never entries, whatever the
    // filters say: a crashed writer's leftovers must not be loaded or
    // counted against byte budgets.
    // Old ones are debris (no live writer renames after an hour) and
    // are swept here, the one place that already walks the directory.
    if (FileName.find(".tmp.") != std::string::npos) {
      struct stat TempSt;
      if (::stat(It->path().c_str(), &TempSt) == 0 &&
          Now - TempSt.st_mtime > kStaleTempFileSeconds)
        fs::remove(It->path(), Ec);
      continue;
    }
    // Filters apply to the decoded (namespaced) name, so callers can
    // ask for `model/foo/` without knowing about the flat encoding.
    std::string Name = decodeFileName(FileName);
    if (Name.size() < Prefix.size() + Suffix.size() ||
        Name.compare(0, Prefix.size(), Prefix) != 0 ||
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
      continue;
    struct stat St;
    if (::stat(It->path().c_str(), &St) != 0)
      continue;
    CacheEntry E;
    E.Name = std::move(Name);
    E.SizeBytes = static_cast<std::uint64_t>(St.st_size);
    E.AccessUnixSeconds = static_cast<std::int64_t>(St.st_mtime);
    Out.push_back(std::move(E));
  }
  return Out;
}

std::string LocalDirBackend::lockPath(const std::string &Name) const {
  return fullPath(Name) + ".lock";
}

CachePruneStats fgbs::pruneEntries(LocalDirBackend &Dir,
                                   std::vector<CacheEntry> Entries,
                                   std::uint64_t MaxBytes,
                                   std::uint64_t MaxAgeSeconds,
                                   std::string_view JustStored) {
  // Times are whole seconds, so the entry just stored can tie with an
  // older one; it ranks first so a put is never evicted by its own prune.
  std::sort(Entries.begin(), Entries.end(),
            [JustStored](const CacheEntry &A, const CacheEntry &B) {
              if ((A.Name == JustStored) != (B.Name == JustStored))
                return A.Name == JustStored;
              if (A.AccessUnixSeconds != B.AccessUnixSeconds)
                return A.AccessUnixSeconds > B.AccessUnixSeconds;
              return A.Name < B.Name;
            });
  CachePruneStats Stats;
  Stats.Entries = Entries.size();
  const std::int64_t Now = static_cast<std::int64_t>(std::time(nullptr));
  bool Evicting = false;
  for (const CacheEntry &E : Entries) {
    Stats.BytesBefore += E.SizeBytes;
    const std::int64_t Age = Now - E.AccessUnixSeconds;
    Evicting = Evicting ||
               (MaxAgeSeconds != 0 && Age > 0 &&
                static_cast<std::uint64_t>(Age) > MaxAgeSeconds) ||
               (MaxBytes != 0 && Stats.BytesAfter + E.SizeBytes > MaxBytes);
    if (Evicting && Dir.remove(E.Name))
      ++Stats.Removed;
    else
      Stats.BytesAfter += E.SizeBytes; // Kept, or its removal failed.
  }
  if (Stats.Removed > 0)
    FGBS_COUNTER_ADD("db.cache.evictions", Stats.Removed);
  return Stats;
}
