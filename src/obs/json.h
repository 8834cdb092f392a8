// Minimal JSON support for the observability subsystem: escaping for the
// emitters (trace, metrics, query log, bench records) and a small parser
// used to validate and round-trip our own output. The parser handles the
// full JSON grammar (objects, arrays, strings, numbers, bools, null) but
// is tuned for machine-generated single-line documents, not arbitrary
// user input.
#ifndef EMCALC_OBS_JSON_H_
#define EMCALC_OBS_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace emcalc::obs {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included). Control characters become \uXXXX.
std::string JsonEscape(std::string_view s);

// A JSON number literal for `v`: the shortest text that parses back to the
// same double; non-finite values become null.
std::string JsonNumber(double v);

// A parsed JSON document. Object member order is preserved.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // First member named `key`, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;

  // Convenience accessors with defaults for absent/mistyped members.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
};

// Parses one JSON document; trailing non-whitespace is an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

// The whole file at `path` (for the JSON-Lines and bundle readers);
// nullopt when it cannot be opened.
std::optional<std::string> ReadFileText(const std::string& path);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_JSON_H_
