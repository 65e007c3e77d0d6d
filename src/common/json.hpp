// Dependency-free JSON: a small value tree, a recursive-descent parser and
// a writer.
//
// The obs trace checker parses with it and benchmark/ writes its result
// documents with it. Just enough JSON for machine-generated documents:
// objects, arrays, strings, numbers, true/false/null. Numbers are held as
// doubles — exact for the 53-bit integer range every counter in this
// codebase lives in.
//
// Parsing reports the first error with its byte offset; dumping emits
// minified JSON with sorted object keys (Value objects are std::map) and
// shortest-round-trip number formatting, so dump(parse(x)) is stable.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace esca::json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  Array array;
  Object object;

  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_object(Object o = {});

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when not an object or the key is absent.
  const Value* get(const std::string& key) const;

  /// Minified JSON text (sorted object keys, round-trip numbers).
  std::string dump() const;
};

/// Parse `text` as one JSON document (leading/trailing whitespace allowed,
/// anything else after the value is an error). On failure returns false and
/// fills `error` with the first problem and its byte offset.
bool parse(std::string_view text, Value& out, std::string& error);

/// JSON string-escape `s` (no surrounding quotes): ", \, control chars.
std::string escape(std::string_view s);

/// Shortest decimal rendering of `v` that strtod round-trips exactly;
/// integers within the 53-bit-exact range render without a decimal point.
std::string dump_number(double v);

}  // namespace esca::json
