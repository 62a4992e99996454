#ifndef AUTOEM_OBS_JSON_H_
#define AUTOEM_OBS_JSON_H_

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace autoem {
namespace obs {

/// JSON for the observability artifacts. Emission (`JsonQuote`,
/// `JsonNumber`) is header-only and shared by the metrics and trace
/// writers. Reading is `ParseJson` (json.cc, in autoem_obs_export), the one
/// strict reader behind every consumer of those files once written:
/// `trace-analyze` and the run report (traces, metrics) and
/// `bench_compare` (bench JSON).

/// Appends `s` to `*out` with JSON string escaping (quotes, backslash,
/// control characters). Does not add surrounding quotes.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// `"escaped"` — the quoted JSON string form of `s`.
inline std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(&out, s);
  out += '"';
  return out;
}

/// Renders a double as a JSON number. NaN and infinity are not valid JSON;
/// they are emitted as null.
inline std::string JsonNumber(double v) {
  if (v != v || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One parsed JSON value. Only the member matching `type` is meaningful.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;  // always finite
  std::string string;   // decoded: escapes resolved, raw bytes kept
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue, std::less<>> object;

  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Member `key` of an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parses one JSON document (RFC 8259) strictly: only the four JSON
/// whitespace bytes; no `+`, leading zeros, hex, `inf`/`nan`, or bare
/// trailing `.`; numbers that do not fit a double are errors; strings
/// reject raw bytes below 0x20, decode `\uXXXX` (surrogate pairs joined,
/// lone surrogates rejected) to UTF-8, and pass raw bytes >= 0x80 through
/// unchanged — `JsonQuote` writes them raw. More than 64 nested arrays and
/// objects are rejected, so hostile input cannot exhaust the stack. On a
/// duplicate object key the last value wins. Errors are InvalidArgument
/// naming the byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_JSON_H_
