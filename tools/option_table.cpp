#include "option_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/strings.hpp"

namespace actyp::cli {
namespace {

// Largest duration whose microsecond count fits a SimDuration.
constexpr double kMaxSeconds = 9.2e12;

std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

// "a positive integer", "a non-negative number of simulated seconds, at
// most 9.2e+12", "a non-negative number, at most 1", ...
std::string Describe(Range range, Unit unit, bool integral, double max) {
  std::string what = integral ? "integer" : "number";
  if (unit == Unit::kSeconds) what += " of simulated seconds";
  std::string out;
  if (range.min == 0) {
    out = (range.min_open ? "a positive " : "a non-negative ") + what;
  } else if (integral && range.min == 1 && !range.min_open) {
    out = "a positive integer";
  } else {
    out = "a " + what + (range.min_open ? " > " : " >= ") +
          FormatNumber(range.min);
  }
  if (max < std::numeric_limits<double>::max()) {
    out += ", at most " + FormatNumber(max);
  }
  return out;
}

const Option* Find(const std::vector<Option>& table, std::string_view name,
                   bool as_flag) {
  const Forms other = as_flag ? Forms::kKeyOnly : Forms::kFlagOnly;
  for (const Option& option : table) {
    if (option.name == name && option.forms != other) return &option;
  }
  return nullptr;
}

// The one boolean parser.
std::optional<bool> ParseBool(std::string_view text) {
  const std::string lower = ToLower(text);
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") {
    return true;
  }
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
    return false;
  }
  return std::nullopt;
}

}  // namespace

Status BadValue(std::string_view name, std::string_view value,
                std::string_view reason) {
  return InvalidArgument("invalid value '" + std::string(value) + "' for " +
                         std::string(name) + ": " + std::string(reason));
}

std::optional<std::string> ParseNumber(std::string_view text, Range range,
                                       Unit unit, std::int64_t* whole,
                                       double* real) {
  const double max =
      unit == Unit::kSeconds ? std::min(range.max, kMaxSeconds) : range.max;
  const auto reason = [&] {
    return "must be " + Describe(range, unit, whole != nullptr, max);
  };
  std::optional<std::int64_t> integer;
  std::optional<double> value;
  if (whole != nullptr) {
    integer = ParseInt(text);
    if (integer) value = static_cast<double>(*integer);
  } else {
    value = ParseDouble(text);
  }
  if (!value || !std::isfinite(*value) || *value < range.min ||
      (range.min_open && *value == range.min) || *value > max) {
    return reason();
  }
  if (whole != nullptr) {
    *whole = *integer;
  } else {
    *real = *value;
  }
  return std::nullopt;
}

Setter Bool(bool* field, bool when_set) {
  return [field, when_set](std::string_view name, const std::string& value) {
    const auto parsed = ParseBool(value);
    if (!parsed) return BadValue(name, value, "must be true or false");
    *field = *parsed == when_set;
    return Status::Ok();
  };
}

Setter Text(std::string* field) {
  return [field](std::string_view, const std::string& value) {
    *field = value;
    return Status::Ok();
  };
}

Status ApplyFlags(const std::vector<Option>& table,
                  const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const Option* option = nullptr;
    if (arg == "-h") {
      option = Find(table, "help", /*as_flag=*/true);
    } else if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
      option = Find(table, std::string_view(arg).substr(2), /*as_flag=*/true);
    }
    if (option == nullptr) {
      return InvalidArgument("unknown argument '" + arg + "'");
    }
    std::string value = "true";
    if (!option->metavar.empty()) {
      if (i + 1 >= args.size()) {
        return InvalidArgument(arg + " requires a value");
      }
      value = args[++i];
    }
    if (Status status = option->set(option->name, value); !status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

Status ApplyKeys(const std::vector<Option>& table, const Config& config,
                 std::string_view section, std::string_view source) {
  for (const auto& [key, value] : config.entries()) {
    const std::size_t dot = key.find('.');
    if (dot != std::string::npos) {
      if (std::string_view(key).substr(0, dot) != section) {
        return InvalidArgument(std::string(source) + ": unknown section [" +
                               key.substr(0, dot) + "]");
      }
      continue;
    }
    const Option* option = Find(table, key, /*as_flag=*/false);
    if (option == nullptr) {
      return InvalidArgument(std::string(source) + ": unknown key '" + key +
                             "'");
    }
    const Setter& set = option->key_set ? option->key_set : option->set;
    if (Status status = set(option->name, value); !status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

std::string Help(const std::vector<Option>& table, std::string_view intro,
                 std::string_view outro) {
  constexpr std::size_t kColumn = 24;
  constexpr std::size_t kWidth = 78;
  const bool has_keys =
      std::any_of(table.begin(), table.end(), [](const Option& option) {
        return option.forms != Forms::kFlagOnly;
      });
  std::string out(intro);
  for (const Option& option : table) {
    std::string line = "  ";
    if (option.forms == Forms::kKeyOnly) {
      line += option.name + " = " + option.metavar;
    } else {
      line += "--" + option.name;
      if (!option.metavar.empty()) line += " " + option.metavar;
    }
    std::string help = option.help;
    if (has_keys && option.forms == Forms::kFlagOnly) help += " [flag only]";
    if (option.forms == Forms::kKeyOnly) help += " [key only]";
    bool first = true;
    for (const std::string& word : SplitSkipEmpty(help, ' ')) {
      if (first) {
        if (line.size() + 1 > kColumn) {
          out += line + "\n";
          line.clear();
        }
        line.resize(kColumn, ' ');
        first = false;
      } else if (line.size() + 1 + word.size() > kWidth) {
        out += line + "\n";
        line.assign(kColumn, ' ');
      } else {
        line += ' ';
      }
      line += word;
    }
    out += line + "\n";
  }
  out += outro;
  return out;
}

int ExitCode(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

}  // namespace actyp::cli
