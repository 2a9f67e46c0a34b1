//===- fgbs/obs/Json.cpp - Minimal JSON value, parser, writer -------------===//

#include "fgbs/obs/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

using namespace fgbs;
using namespace fgbs::obs;

JsonValue::JsonValue(const JsonValue &Other)
    : TheKind(Other.TheKind), Payload(Other.Payload) {
  switch (TheKind) {
  case Kind::String:
    Payload.String = new std::string(*Other.Payload.String);
    break;
  case Kind::Array:
    Payload.Elements = new std::vector<JsonValue>(*Other.Payload.Elements);
    break;
  case Kind::Object:
    Payload.Members =
        new std::map<std::string, JsonValue>(*Other.Payload.Members);
    break;
  default:
    break;
  }
}

void JsonValue::releaseHeap() {
  switch (TheKind) {
  case Kind::String:
    delete Payload.String;
    break;
  case Kind::Array:
    delete Payload.Elements;
    break;
  case Kind::Object:
    delete Payload.Members;
    break;
  default:
    break;
  }
}

JsonValue JsonValue::array() {
  JsonValue V;
  V.Payload.Elements = new std::vector<JsonValue>();
  V.TheKind = Kind::Array;
  return V;
}

JsonValue JsonValue::object() {
  JsonValue V;
  V.Payload.Members = new std::map<std::string, JsonValue>();
  V.TheKind = Kind::Object;
  return V;
}

const std::string &JsonValue::noString() {
  static const std::string Empty;
  return Empty;
}

const std::vector<JsonValue> &JsonValue::noElements() {
  static const std::vector<JsonValue> Empty;
  return Empty;
}

const std::map<std::string, JsonValue> &JsonValue::noMembers() {
  static const std::map<std::string, JsonValue> Empty;
  return Empty;
}

std::vector<JsonValue> &JsonValue::discardedElements() {
  thread_local std::vector<JsonValue> Discarded;
  Discarded.clear();
  return Discarded;
}

std::map<std::string, JsonValue> &JsonValue::discardedMembers() {
  thread_local std::map<std::string, JsonValue> Discarded;
  Discarded.clear();
  return Discarded;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (TheKind != Kind::Object)
    return nullptr;
  auto It = Payload.Members->find(Key);
  return It == Payload.Members->end() ? nullptr : &It->second;
}

JsonValue &JsonValue::set(const std::string &Key, JsonValue V) {
  assert(TheKind == Kind::Object && "set() on a non-object");
  if (TheKind == Kind::Object)
    Payload.Members->insert_or_assign(Key, std::move(V));
  return *this;
}

void JsonValue::push(JsonValue V) {
  assert(TheKind == Kind::Array && "push() on a non-array");
  if (TheKind == Kind::Array)
    Payload.Elements->push_back(std::move(V));
}

namespace {

/// Recursive-descent parser over a character range.  Each value is
/// parsed straight into its slot in the parent (a fresh array element,
/// an object member, the document), so no value is built and then moved
/// up the tree.
class Parser {
public:
  Parser(const char *Begin, const char *End) : Cursor(Begin), End(End) {}

  /// Parses the whole range into \p Out; false on malformed input or
  /// trailing garbage.
  bool document(JsonValue &Out) {
    if (!value(Out))
      return false;
    skipSpace();
    return Cursor == End;
  }

private:
  /// Exactly the "C"-locale std::isspace set: JSON's four whitespace
  /// characters plus \v and \f.
  static bool isSpace(char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
           C == '\r';
  }

  static bool isDigit(char C) { return C >= '0' && C <= '9'; }

  void skipSpace() {
    while (Cursor != End && isSpace(*Cursor))
      ++Cursor;
  }

  bool consume(char C) {
    skipSpace();
    if (Cursor == End || *Cursor != C)
      return false;
    ++Cursor;
    return true;
  }

  bool literal(const char *Word) {
    for (; *Word; ++Word, ++Cursor)
      if (Cursor == End || *Cursor != *Word)
        return false;
    return true;
  }

  /// Parses one value into \p Slot, replacing whatever it held (so when
  /// an object gives a key twice, the last value wins).
  bool value(JsonValue &Slot) {
    skipSpace();
    if (Cursor == End)
      return false;
    switch (*Cursor) {
    case '{':
      return object(Slot);
    case '[':
      return array(Slot);
    case '"': {
      std::string S;
      if (!string(S))
        return false;
      Slot = JsonValue(std::move(S));
      return true;
    }
    case 't':
      Slot = JsonValue(true);
      return literal("true");
    case 'f':
      Slot = JsonValue(false);
      return literal("false");
    case 'n':
      Slot = JsonValue();
      return literal("null");
    default:
      return number(Slot);
    }
  }

  bool object(JsonValue &Slot) {
    ++Cursor; // '{'
    Slot = JsonValue::object();
    if (consume('}'))
      return true;
    std::string Key;
    for (;;) {
      skipSpace();
      if (Cursor == End || *Cursor != '"')
        return false;
      if (!string(Key) || !consume(':') || !value(Slot.members()[Key]))
        return false;
      if (consume(','))
        continue;
      return consume('}');
    }
  }

  bool array(JsonValue &Slot) {
    ++Cursor; // '['
    Slot = JsonValue::array();
    if (consume(']'))
      return true;
    std::vector<JsonValue> &Elements = Slot.elements();
    for (;;) {
      if (!value(Elements.emplace_back()))
        return false;
      if (consume(','))
        continue;
      return consume(']');
    }
  }

  /// Parses a string literal into \p Out (cleared first).
  bool string(std::string &Out) {
    ++Cursor; // '"'
    Out.clear();
    while (Cursor != End && *Cursor != '"') {
      char C = *Cursor++;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Cursor == End)
        return false;
      char Escape = *Cursor++;
      switch (Escape) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(Escape);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        // \uXXXX: decoded only for the ASCII range the telemetry schema
        // emits; anything else is preserved as a '?' placeholder.
        if (End - Cursor < 4)
          return false;
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = *Cursor++;
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return false;
        }
        Out.push_back(Code < 0x80 ? static_cast<char>(Code) : '?');
        break;
      }
      default:
        return false;
      }
    }
    if (Cursor == End)
      return false; // Unterminated.
    ++Cursor;       // Closing '"'.
    return true;
  }

  /// A number is the longest run of digits, '.', 'e', 'E', '-' and '+'
  /// that std::from_chars consumes whole (so a leading '+' is rejected).
  /// std::from_chars reads the longest prefix that matches its pattern,
  /// and a digit or '.' after the optional '-' keeps inf and nan out.
  /// Where that prefix stops short of the run, the next character is a
  /// number character, which nothing after a value accepts, so the
  /// document is rejected just the same.  The characters are read once.
  bool number(JsonValue &Slot) {
    const char *First = Cursor != End && *Cursor == '-' ? Cursor + 1 : Cursor;
    if (First == End || !(isDigit(*First) || *First == '.'))
      return false;
    double Parsed = 0.0;
    auto [Ptr, Ec] = std::from_chars(Cursor, End, Parsed);
    if (Ec != std::errc())
      return false;
    Cursor = Ptr;
    Slot = JsonValue(Parsed);
    return true;
  }

  const char *Cursor;
  const char *End;
};

/// Shortest representation that round-trips; integers print as integers
/// (the schema's counters and nanosecond sums stay grep-able).
///
/// The bytes are those of printf: "%.0f" for integers, else the first
/// "%.Pg" (P = 1..16) that parses back equal, else "%.17g".  std::to_chars
/// with a precision is specified as printf with that precision, so each
/// candidate is the same string.  No P below D, the digit count of the
/// shortest round-trip form, can parse back equal (a shorter round-trip
/// form would exist), so the search starts at D.
void writeNumber(std::string &Out, double N) {
  char Buffer[40];
  char *const Limit = Buffer + sizeof(Buffer);
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 1e15) {
    Out.append(Buffer,
               std::to_chars(Buffer, Limit, N, std::chars_format::fixed, 0)
                   .ptr);
    return;
  }
  if (!std::isfinite(N)) { // JSON has no inf/nan.
    Out += "null";
    return;
  }
  const char *ShortEnd =
      std::to_chars(Buffer, Limit, N, std::chars_format::scientific).ptr;
  int Digits = 0;
  for (const char *C = Buffer; C != ShortEnd && *C != 'e'; ++C)
    Digits += *C >= '0' && *C <= '9';
  for (int Precision = Digits; Precision < 17; ++Precision) {
    char *End =
        std::to_chars(Buffer, Limit, N, std::chars_format::general, Precision)
            .ptr;
    double Back = 0.0;
    std::from_chars(Buffer, End, Back);
    if (Back == N) {
      Out.append(Buffer, End);
      return;
    }
  }
  Out.append(Buffer,
             std::to_chars(Buffer, Limit, N, std::chars_format::general, 17)
                 .ptr);
}

/// Appends \p S escaped for a JSON string literal (no quotes).
void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buffer;
      } else {
        Out.push_back(C);
      }
      break;
    }
  }
}

void writeValue(std::string &Out, const JsonValue &V, unsigned Indent,
                unsigned Level) {
  auto Newline = [&](unsigned AtLevel) {
    if (Indent == 0)
      return;
    Out.push_back('\n');
    Out.append(static_cast<std::size_t>(Indent) * AtLevel, ' ');
  };

  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    return;
  case JsonValue::Kind::Bool:
    Out += V.boolean() ? "true" : "false";
    return;
  case JsonValue::Kind::Number:
    writeNumber(Out, V.number());
    return;
  case JsonValue::Kind::String:
    Out.push_back('"');
    appendEscaped(Out, V.string());
    Out.push_back('"');
    return;
  case JsonValue::Kind::Array: {
    Out.push_back('[');
    bool First = true;
    for (const JsonValue &E : V.elements()) {
      if (!First)
        Out.push_back(',');
      First = false;
      Newline(Level + 1);
      writeValue(Out, E, Indent, Level + 1);
    }
    if (!First)
      Newline(Level);
    Out.push_back(']');
    return;
  }
  case JsonValue::Kind::Object: {
    Out.push_back('{');
    bool First = true;
    for (const auto &[Key, Member] : V.members()) {
      if (!First)
        Out.push_back(',');
      First = false;
      Newline(Level + 1);
      Out.push_back('"');
      appendEscaped(Out, Key);
      Out += Indent ? "\": " : "\":";
      writeValue(Out, Member, Indent, Level + 1);
    }
    if (!First)
      Newline(Level);
    Out.push_back('}');
    return;
  }
  }
}

} // namespace

std::optional<JsonValue> obs::parseJson(const std::string &Text) {
  std::optional<JsonValue> Out(std::in_place);
  Parser P(Text.data(), Text.data() + Text.size());
  if (!P.document(*Out))
    return std::nullopt;
  return Out;
}

std::string obs::writeJson(const JsonValue &V, unsigned Indent) {
  std::string Out;
  writeValue(Out, V, Indent, 0);
  return Out;
}

std::string obs::escapeJsonString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  appendEscaped(Out, S);
  return Out;
}
