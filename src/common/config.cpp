#include "common/config.hpp"

#include <cstdlib>

#include "common/check.hpp"

namespace esca {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    ESCA_REQUIRE(eq != std::string::npos && eq > 0,
                 "expected key=value argument, got '" << arg << "'");
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) { values_[key] = value; }

bool Config::has(const std::string& key) const { return values_.contains(key); }

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  ESCA_REQUIRE(!it->second.empty() && *end == '\0',
               "config key '" << key << "' is not an integer: '" << it->second << "'");
  return v;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  ESCA_REQUIRE(!it->second.empty() && *end == '\0',
               "config key '" << key << "' is not a number: '" << it->second << "'");
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  ESCA_REQUIRE(false, "config key '" << key << "' is not a boolean: '" << v << "'");
  return fallback;
}

}  // namespace esca
