// Key-value configuration with typed getters.
//
// Benches and examples accept `key=value` command-line overrides; this class
// parses them and provides defaulted, type-checked access.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace esca {

class Config {
 public:
  Config() = default;

  /// Parse argv entries of the form `key=value`; other entries throw.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace esca
