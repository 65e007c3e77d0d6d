#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace esca::json {

namespace {

// Recursive-descent parser, promoted verbatim from the obs trace checker
// (src/obs/trace_check.cpp pre-PR-10) — error text kept identical so the
// checker's diagnostics are unchanged by the move.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Value& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      error = str::format("trailing content at offset %zu", pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool fail(std::string& error, const std::string& what) {
    error = str::format("JSON parse error at offset %zu: %s", pos_, what.c_str());
    return false;
  }

  bool parse_value(Value& out, std::string& error) {
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return parse_string(out.string, error);
    }
    if (c == 't' || c == 'f') return parse_keyword(out, error, c == 't' ? "true" : "false");
    if (c == 'n') return parse_keyword(out, error, "null");
    return parse_number(out, error);
  }

  bool parse_keyword(Value& out, std::string& error, std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail(error, "bad literal");
    pos_ += word.size();
    if (word == "true" || word == "false") {
      out.kind = Value::Kind::kBool;
      out.boolean = word == "true";
    } else {
      out.kind = Value::Kind::kNull;
    }
    return true;
  }

  bool parse_number(Value& out, std::string& error) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) digits = true;
      ++pos_;
    }
    if (!digits) return fail(error, "expected a value");
    out.kind = Value::Kind::kNumber;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    if (text_[pos_] != '"') return fail(error, "expected '\"'");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail(error, "truncated \\u escape");
            // Decoded only far enough for validity; non-ASCII folds to '?'.
            const std::string hex(text_.substr(pos_, 4));
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return fail(error, "bad \\u escape");
            out += code < 0x80 ? static_cast<char>(code) : '?';
            pos_ += 4;
            break;
          }
          default:
            return fail(error, "bad escape character");
        }
      } else {
        out += c;
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_array(Value& out, std::string& error) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value element;
      skip_ws();
      if (!parse_value(element, error)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  bool parse_object(Value& out, std::string& error) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail(error, "expected object key");
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail(error, "expected ':'");
      ++pos_;
      skip_ws();
      Value value;
      if (!parse_value(value, error)) return false;
      out.object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
};

void dump_to(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      out += dump_number(v.number);
      break;
    case Value::Kind::kString:
      out += '"';
      out += escape(v.string);
      out += '"';
      break;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& e : v.array) {
        if (!first) out += ',';
        first = false;
        dump_to(e, out);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.object) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        dump_to(value, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

Value Value::make_bool(bool b) {
  Value v;
  v.kind = Kind::kBool;
  v.boolean = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind = Kind::kNumber;
  v.number = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind = Kind::kString;
  v.string = std::move(s);
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind = Kind::kObject;
  v.object = std::move(o);
  return v;
}

const Value* Value::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string Value::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

bool parse(std::string_view text, Value& out, std::string& error) {
  return Parser(text).parse(out, error);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str::format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string dump_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN
  // Integers exact in a double render as integers (counters, byte totals).
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    return str::format("%lld", static_cast<long long>(v));
  }
  // Shortest %.{p}g rendering that strtod round-trips exactly.
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace esca::json
