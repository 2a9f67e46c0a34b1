//===- fgbs/obs/Json.h - Minimal JSON value, parser, writer ----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON layer for the telemetry subsystem: run
/// reports and bench baselines are written and re-read through it, and
/// the CI perf gate parses both sides of its comparison with it.  No
/// external dependency; numbers are doubles (every value the schema
/// carries fits); object keys are sorted (std::map), which the writers
/// rely on for stable, diffable output.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_OBS_JSON_H
#define FGBS_OBS_JSON_H

#include <cassert>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fgbs {
namespace obs {

/// A JSON document node in 16 bytes: a kind tag and one 8-byte payload.
/// Null, bools and numbers live inline; a string, an array or an object
/// is one owned heap allocation.  Copies are deep, moves steal the allocation
/// and leave the source null.
///
/// The const accessors of another kind return that kind's empty value
/// (false, 0.0, "", no elements, no members).  The mutators (set, push
/// and the non-const elements and members) require the matching kind:
/// they assert in debug builds and leave the value unchanged in release
/// builds.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() noexcept : TheKind(Kind::Null) { Payload.Number = 0.0; }
  JsonValue(bool B) noexcept : TheKind(Kind::Bool) { Payload.Bool = B; }
  JsonValue(double N) noexcept : TheKind(Kind::Number) { Payload.Number = N; }
  JsonValue(std::string S) : TheKind(Kind::String) {
    Payload.String = new std::string(std::move(S));
  }
  JsonValue(const char *S) : JsonValue(std::string(S)) {}

  JsonValue(const JsonValue &Other);
  JsonValue(JsonValue &&Other) noexcept
      : TheKind(Other.TheKind), Payload(Other.Payload) {
    Other.TheKind = Kind::Null;
  }
  JsonValue &operator=(const JsonValue &Other) {
    if (this != &Other)
      *this = JsonValue(Other);
    return *this;
  }
  JsonValue &operator=(JsonValue &&Other) noexcept {
    if (this != &Other) {
      release();
      TheKind = Other.TheKind;
      Payload = Other.Payload;
      Other.TheKind = Kind::Null;
    }
    return *this;
  }
  ~JsonValue() { release(); }

  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isNumber() const { return TheKind == Kind::Number; }
  bool isObject() const { return TheKind == Kind::Object; }

  bool boolean() const { return TheKind == Kind::Bool && Payload.Bool; }
  double number() const {
    return TheKind == Kind::Number ? Payload.Number : 0.0;
  }
  const std::string &string() const {
    return TheKind == Kind::String ? *Payload.String : noString();
  }

  std::vector<JsonValue> &elements() {
    assert(TheKind == Kind::Array && "elements() of a non-array");
    return TheKind == Kind::Array ? *Payload.Elements : discardedElements();
  }
  const std::vector<JsonValue> &elements() const {
    return TheKind == Kind::Array ? *Payload.Elements : noElements();
  }

  std::map<std::string, JsonValue> &members() {
    assert(TheKind == Kind::Object && "members() of a non-object");
    return TheKind == Kind::Object ? *Payload.Members : discardedMembers();
  }
  const std::map<std::string, JsonValue> &members() const {
    return TheKind == Kind::Object ? *Payload.Members : noMembers();
  }

  /// Object member lookup; null for non-objects and missing keys.
  const JsonValue *find(const std::string &Key) const;

  /// Sets an object member (the value must be an object).
  JsonValue &set(const std::string &Key, JsonValue V);

  /// Appends an array element (the value must be an array).
  void push(JsonValue V);

private:
  /// Frees the string, array or object this value owns (a no-op for
  /// the inline kinds); the kind tag is left for the caller to reset.
  void release() {
    if (TheKind >= Kind::String)
      releaseHeap();
  }
  void releaseHeap();

  static const std::string &noString();
  static const std::vector<JsonValue> &noElements();
  static const std::map<std::string, JsonValue> &noMembers();
  /// Empty per-thread containers the release-build non-const accessors
  /// hand out for the wrong kind; whatever is written there is dropped.
  static std::vector<JsonValue> &discardedElements();
  static std::map<std::string, JsonValue> &discardedMembers();

  Kind TheKind;
  union {
    bool Bool;
    double Number;
    std::string *String;
    std::vector<JsonValue> *Elements;
    std::map<std::string, JsonValue> *Members;
  } Payload;
};

static_assert(sizeof(JsonValue) <= 16, "JsonValue is a tag and one word");

/// Parses one JSON document (with optional trailing whitespace).
/// Returns std::nullopt on malformed input.
std::optional<JsonValue> parseJson(const std::string &Text);

/// Serializes \p V; \p Indent > 0 pretty-prints with that indent width.
std::string writeJson(const JsonValue &V, unsigned Indent = 0);

/// Escapes \p S for embedding in a JSON string literal (no quotes).
std::string escapeJsonString(const std::string &S);

} // namespace obs
} // namespace fgbs

#endif // FGBS_OBS_JSON_H
