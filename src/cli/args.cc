#include "src/cli/args.h"

#include <cmath>

#include "src/util/str.h"
#include "src/util/thread_pool.h"

namespace webcc {

namespace {

// Parses "<number>[s|m|h|d]" into seconds. Returns nullopt on malformed
// input, negative values, or magnitudes outside the int64 timeline.
std::optional<SimDuration> ParseDuration(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  int64_t multiplier = 1;
  const char unit = text.back();
  std::string_view number = text;
  switch (unit) {
    case 's': multiplier = 1; number.remove_suffix(1); break;
    case 'm': multiplier = 60; number.remove_suffix(1); break;
    case 'h': multiplier = 3600; number.remove_suffix(1); break;
    case 'd': multiplier = 86400; number.remove_suffix(1); break;
    default:
      if (unit < '0' || unit > '9') {
        return std::nullopt;  // unknown unit suffix
      }
      break;
  }
  const auto value = ParseDouble(std::string(number));
  if (!value || !std::isfinite(*value) || *value < 0.0) {
    return std::nullopt;
  }
  const double seconds = *value * static_cast<double>(multiplier);
  // Stay far inside int64 so downstream SimTime arithmetic cannot trap.
  if (seconds > 4.0e18) {
    return std::nullopt;
  }
  return SecondsF(seconds);
}

// Parses "<number>[ns|us|ms|s|m]" into wall nanoseconds (bare number =
// milliseconds). Returns nullopt on malformed input, negatives, or
// magnitudes outside int64.
std::optional<int64_t> ParseWallNanos(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  const auto has_suffix = [text](std::string_view suffix) {
    return text.size() > suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
  };
  double scale_ns = 1e6;  // bare number: milliseconds
  std::string_view number = text;
  if (has_suffix("ns")) {
    scale_ns = 1.0;
    number.remove_suffix(2);
  } else if (has_suffix("us")) {
    scale_ns = 1e3;
    number.remove_suffix(2);
  } else if (has_suffix("ms")) {
    scale_ns = 1e6;
    number.remove_suffix(2);
  } else if (has_suffix("s")) {
    scale_ns = 1e9;
    number.remove_suffix(1);
  } else if (has_suffix("m")) {
    scale_ns = 60e9;
    number.remove_suffix(1);
  } else if (text.back() < '0' || text.back() > '9') {
    return std::nullopt;  // unknown unit suffix
  }
  const auto value = ParseDouble(std::string(number));
  if (!value || !std::isfinite(*value) || *value < 0.0) {
    return std::nullopt;
  }
  const double nanos = *value * scale_ns;
  if (nanos > 9.0e18) {
    return std::nullopt;
  }
  return static_cast<int64_t>(std::llround(nanos));
}

}  // namespace

std::optional<SimDuration> ArgParser::ParseDurationText(std::string_view text) {
  return ParseDuration(text);
}

ArgParser::ArgParser(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      error_ = "expected --flag or --key=value, got '" + arg + "'";
      return;
    }
    const std::string_view body = std::string_view(arg).substr(2);
    const size_t eq = body.find('=');
    Value value;
    std::string name;
    if (eq == std::string_view::npos) {
      name = std::string(body);
      value.bare = true;
      value.text = "true";
    } else {
      name = std::string(body.substr(0, eq));
      value.text = std::string(body.substr(eq + 1));
    }
    if (name.empty()) {
      error_ = "empty flag name in '" + arg + "'";
      return;
    }
    values_[name] = std::move(value);
  }
}

bool ArgParser::Has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string ArgParser::GetString(std::string_view name, std::string_view default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return std::string(default_value);
  }
  it->second.used = true;
  return it->second.text;
}

int64_t ArgParser::GetInt(std::string_view name, int64_t default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  it->second.used = true;
  const auto parsed = ParseInt(it->second.text);
  if (!parsed) {
    error_ = "--" + it->first + " expects an integer, got '" + it->second.text + "'";
    return default_value;
  }
  return *parsed;
}

double ArgParser::GetDouble(std::string_view name, double default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  it->second.used = true;
  const auto parsed = ParseDouble(it->second.text);
  if (!parsed) {
    error_ = "--" + it->first + " expects a number, got '" + it->second.text + "'";
    return default_value;
  }
  return *parsed;
}

int64_t ArgParser::GetIntInRange(std::string_view name, int64_t default_value, int64_t lo,
                                 int64_t hi) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  it->second.used = true;
  const auto parsed = ParseInt(it->second.text);
  if (!parsed || *parsed < lo || *parsed > hi) {
    error_ = StrFormat("--%s must be an integer in [%lld, %lld], got '%s'", it->first.c_str(),
                       static_cast<long long>(lo), static_cast<long long>(hi),
                       it->second.text.c_str());
    return default_value;
  }
  return *parsed;
}

double ArgParser::GetDoubleInRange(std::string_view name, double default_value, double lo,
                                   double hi) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  it->second.used = true;
  const auto parsed = ParseDouble(it->second.text);
  if (!parsed || !std::isfinite(*parsed) || *parsed < lo || *parsed > hi) {
    error_ = StrFormat("--%s must be a finite number in [%.15g, %.15g], got '%s'",
                       it->first.c_str(), lo, hi, it->second.text.c_str());
    return default_value;
  }
  return *parsed;
}

size_t ArgParser::GetJobs(size_t default_value) {
  return static_cast<size_t>(GetIntInRange("jobs", static_cast<int64_t>(default_value), 0,
                                           static_cast<int64_t>(kMaxJobs)));
}

SimDuration ArgParser::GetDuration(std::string_view name, SimDuration default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  it->second.used = true;
  const auto parsed = ParseDuration(it->second.text);
  if (!parsed) {
    error_ = "--" + it->first + " expects a non-negative duration like 90s, 15m, 1.5h, or 2d; got '" +
             it->second.text + "'";
    return default_value;
  }
  return *parsed;
}

int64_t ArgParser::GetWallNanos(std::string_view name, int64_t default_ns) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_ns;
  }
  it->second.used = true;
  const auto parsed = ParseWallNanos(it->second.text);
  if (!parsed) {
    error_ = "--" + it->first +
             " expects a non-negative wall duration like 250ms, 1.5s, 800us, or 2m; got '" +
             it->second.text + "'";
    return default_ns;
  }
  return *parsed;
}

bool ArgParser::GetBool(std::string_view name, bool default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  it->second.used = true;
  if (it->second.bare || EqualsIgnoreCase(it->second.text, "true") || it->second.text == "1") {
    return true;
  }
  if (EqualsIgnoreCase(it->second.text, "false") || it->second.text == "0") {
    return false;
  }
  error_ = "--" + it->first + " expects a boolean, got '" + it->second.text + "'";
  return default_value;
}

std::vector<std::string> ArgParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : values_) {
    if (!value.used) {
      unused.push_back(name);
    }
  }
  return unused;
}

std::vector<std::string> ArgsFromArgv(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && arg.find('=') == std::string::npos && i + 1 < argc &&
        std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      arg += '=';
      arg += argv[++i];
    }
    args.push_back(std::move(arg));
  }
  return args;
}

}  // namespace webcc
