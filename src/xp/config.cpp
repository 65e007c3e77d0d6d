#include "xp/config.hpp"

#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "xp/record.hpp"

namespace esca::xp {

namespace {

bool parse_direction(const std::string& text, Direction& out) {
  if (text == "lower") {
    out = Direction::kLowerIsBetter;
  } else if (text == "higher") {
    out = Direction::kHigherIsBetter;
  } else if (text == "equal") {
    out = Direction::kEqual;
  } else {
    return false;
  }
  return true;
}

/// Args/grid values are written as strings or numbers in the config; both
/// normalize to the command-line token.
bool value_token(const json::Value& v, std::string& out) {
  if (v.is_string()) {
    out = v.string;
    return true;
  }
  if (v.is_number()) {
    out = json::dump_number(v.number);
    return true;
  }
  if (v.is_bool()) {
    out = v.boolean ? '1' : '0';
    return true;
  }
  return false;
}

bool parse_profile(const json::Value& pv, Profile& out, std::string& error) {
  if (!pv.is_object()) {
    error = "profile is not an object";
    return false;
  }
  if (const json::Value* args = pv.get("args"); args != nullptr) {
    if (!args->is_object()) {
      error = "profile \"args\" is not an object";
      return false;
    }
    for (const auto& [k, v] : args->object) {
      std::string token;
      if (!value_token(v, token)) {
        error = "profile arg \"" + k + "\" is not a string/number/bool";
        return false;
      }
      out.args[k] = token;
    }
  }
  if (const json::Value* grid = pv.get("grid"); grid != nullptr) {
    if (!grid->is_object()) {
      error = "profile \"grid\" is not an object";
      return false;
    }
    for (const auto& [k, v] : grid->object) {
      if (!v.is_array() || v.array.empty()) {
        error = "grid axis \"" + k + "\" is not a non-empty array";
        return false;
      }
      std::vector<std::string> values;
      for (const json::Value& e : v.array) {
        std::string token;
        if (!value_token(e, token)) {
          error = "grid axis \"" + k + "\" holds a non-scalar value";
          return false;
        }
        values.push_back(std::move(token));
      }
      out.grid[k] = std::move(values);
    }
  }
  out.repetitions = static_cast<int>(pv.int_or("repetitions", 1));
  if (out.repetitions < 1) {
    error = "profile \"repetitions\" must be >= 1";
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kLowerIsBetter: return "lower";
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kEqual: return "equal";
  }
  return "?";
}

bool ExperimentConfig::from_json(std::string_view text, ExperimentConfig& out,
                                 std::string& error) {
  json::Value root;
  if (!json::parse(text, root, error)) return false;
  if (!root.is_object()) {
    error = "experiment config is not an object";
    return false;
  }
  const int schema = static_cast<int>(root.int_or("schema", -1));
  if (schema != kHistorySchema) {
    error = str::format("config schema %d, this harness speaks %d", schema, kHistorySchema);
    return false;
  }
  out = ExperimentConfig{};
  out.name = root.string_or("name", "");
  out.binary = root.string_or("binary", "");
  if (out.name.empty() || out.binary.empty()) {
    error = "experiment config lacks \"name\"/\"binary\"";
    return false;
  }
  if (const json::Value* key = root.get("key"); key != nullptr) {
    if (!key->is_array()) {
      error = "\"key\" is not an array";
      return false;
    }
    for (const json::Value& k : key->array) {
      if (!k.is_string()) {
        error = "\"key\" entries must be strings";
        return false;
      }
      out.key.push_back(k.string);
    }
  }
  if (const json::Value* pv = root.get("profile"); pv != nullptr) {
    if (!parse_profile(*pv, out.profile, error)) return false;
  }
  // The smoke profile inherits the full profile's grid/args as a base, then
  // overlays its own — a config only spells out what shrinks.
  out.smoke = out.profile;
  if (const json::Value* sv = root.get("smoke"); sv != nullptr) {
    Profile overlay;
    if (!parse_profile(*sv, overlay, error)) return false;
    for (const auto& [k, v] : overlay.args) out.smoke.args[k] = v;
    for (const auto& [k, v] : overlay.grid) out.smoke.grid[k] = v;
    if (sv->get("repetitions") != nullptr) out.smoke.repetitions = overlay.repetitions;
  }
  const json::Value* metrics = root.get("metrics");
  if (metrics == nullptr || !metrics->is_array() || metrics->array.empty()) {
    error = "experiment config lacks a non-empty \"metrics\" array";
    return false;
  }
  for (std::size_t i = 0; i < metrics->array.size(); ++i) {
    const json::Value& mv = metrics->array[i];
    if (!mv.is_object()) {
      error = str::format("metric %zu is not an object", i);
      return false;
    }
    MetricRule rule;
    rule.name = mv.string_or("name", "");
    if (rule.name.empty()) {
      error = str::format("metric %zu lacks a \"name\"", i);
      return false;
    }
    const std::string dir = mv.string_or("direction", "lower");
    if (!parse_direction(dir, rule.direction)) {
      error = "metric \"" + rule.name + "\" has unknown direction \"" + dir + "\"";
      return false;
    }
    rule.tolerance_pct = mv.number_or("tolerance_pct", 0.0);
    if (rule.tolerance_pct < 0.0) {
      error = "metric \"" + rule.name + "\" has negative tolerance_pct";
      return false;
    }
    rule.stable = mv.bool_or("stable", false);
    rule.record = mv.string_or("record", kRecordBench);
    if (rule.record != kRecordBench && rule.record != kRecordObs) {
      error = "metric \"" + rule.name + "\" has unknown record kind \"" + rule.record + "\"";
      return false;
    }
    out.metrics.push_back(std::move(rule));
  }
  return true;
}

bool ExperimentConfig::load(const std::string& path, ExperimentConfig& out,
                            std::string& error) {
  std::ifstream is(path);
  if (!is) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (!from_json(buffer.str(), out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

const MetricRule* ExperimentConfig::rule_for(const std::string& metric,
                                             const std::string& record) const {
  for (const MetricRule& rule : metrics) {
    if (rule.name == metric && rule.record == record) return &rule;
  }
  return nullptr;
}

std::vector<std::map<std::string, std::string>> expand_grid(
    const std::map<std::string, std::vector<std::string>>& grid) {
  std::vector<std::map<std::string, std::string>> combos{{}};
  // std::map iterates keys sorted; appending each axis keeps the first key
  // slowest, so expansion order is independent of config declaration order.
  for (const auto& [key, values] : grid) {
    std::vector<std::map<std::string, std::string>> next;
    next.reserve(combos.size() * values.size());
    for (const auto& combo : combos) {
      for (const std::string& value : values) {
        auto extended = combo;
        extended[key] = value;
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }
  return combos;
}

}  // namespace esca::xp
