#include "obs/trace_check.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace esca::obs {

namespace {

struct OpenSpan {
  std::string name;
  double ts{0.0};
};

TraceCheckResult failed(std::string error) {
  TraceCheckResult r;
  r.error = std::move(error);
  return r;
}

}  // namespace

std::string TraceCheckResult::summary() const {
  if (!ok) return "INVALID: " + error;
  return str::format("ok: %zu events, %zu thread(s), max depth %zu, %zu event(s) with args",
                     events, threads, max_depth, args_seen);
}

TraceCheckResult check_trace_json(std::string_view text) {
  json::Value root;
  std::string error;
  if (!json::parse(text, root, error)) return failed(error);

  const json::Array* events = nullptr;
  if (root.is_array()) {
    events = &root.array;
  } else if (root.is_object()) {
    const json::Value* te = root.get("traceEvents");
    if (te == nullptr || !te->is_array()) {
      return failed("document is an object without a \"traceEvents\" array");
    }
    events = &te->array;
  } else {
    return failed("document is neither an object nor an array");
  }

  TraceCheckResult result;
  std::map<std::int64_t, std::vector<OpenSpan>> stacks;   // tid -> open spans
  std::map<std::int64_t, double> last_ts;                 // tid -> previous ts
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& ev = (*events)[i];
    if (!ev.is_object()) {
      return failed(str::format("event %zu is not an object", i));
    }
    const json::Value* name = ev.get("name");
    const json::Value* ph = ev.get("ph");
    const json::Value* ts = ev.get("ts");
    const json::Value* tid = ev.get("tid");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      return failed(str::format("event %zu lacks a string \"name\"", i));
    }
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return failed(str::format("event %zu lacks a one-char \"ph\"", i));
    }
    if (ts == nullptr || !ts->is_number()) {
      return failed(str::format("event %zu lacks a numeric \"ts\"", i));
    }
    if (tid == nullptr || !tid->is_number()) {
      return failed(str::format("event %zu lacks a numeric \"tid\"", i));
    }
    const auto t = static_cast<std::int64_t>(tid->number);
    const char phase = ph->string[0];
    ++result.events;

    const json::Value* args = ev.get("args");
    if (args != nullptr && args->is_object() && !args->object.empty()) {
      ++result.args_seen;
    }

    if (phase == 'M') continue;  // metadata carries no duration semantics
    if (phase != 'B' && phase != 'E' && phase != 'X' && phase != 'i' && phase != 'C') {
      return failed(str::format("event %zu has unsupported phase '%c'", i, phase));
    }

    const auto prev = last_ts.find(t);
    if (prev != last_ts.end() && ts->number < prev->second) {
      return failed(str::format("event %zu (tid %lld) goes back in time", i,
                                static_cast<long long>(t)));
    }
    last_ts[t] = ts->number;

    if (phase == 'B') {
      auto& stack = stacks[t];
      stack.push_back(OpenSpan{name->string, ts->number});
      result.max_depth = std::max(result.max_depth, stack.size());
    } else if (phase == 'E') {
      auto& stack = stacks[t];
      if (stack.empty()) {
        return failed(str::format("event %zu: 'E' for \"%s\" (tid %lld) with no open span", i,
                                  name->string.c_str(), static_cast<long long>(t)));
      }
      if (stack.back().name != name->string) {
        return failed(str::format(
            "event %zu: 'E' for \"%s\" (tid %lld) but innermost open span is \"%s\"", i,
            name->string.c_str(), static_cast<long long>(t), stack.back().name.c_str()));
      }
      stack.pop_back();
    }
  }

  for (const auto& [t, stack] : stacks) {
    if (!stack.empty()) {
      return failed(str::format("tid %lld ends with %zu unclosed span(s), first \"%s\"",
                                static_cast<long long>(t), stack.size(),
                                stack.front().name.c_str()));
    }
  }

  result.threads = last_ts.size();
  result.ok = true;
  return result;
}

TraceCheckResult check_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return failed("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return check_trace_json(buffer.str());
}

}  // namespace esca::obs
