// Option tables for the drivers (actyp_sim, actyp_chaos): each setting
// is declared once — its name, value placeholder, help line and the
// setter that validates and stores it — and both `--name VALUE` on the
// command line and `name = VALUE` in a config file reach that one
// setter. A bad value therefore gets one message and one exit status
// whichever form it came in, and --help is printed from the same table.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"

namespace actyp::cli {

// Validates and stores one value of the option called `name`. Returns
// BadValue(...) for a rejected value (exit status 2) and any other
// error for input that could not be read (exit status 1).
using Setter =
    std::function<Status(std::string_view name, const std::string& value)>;

// Where an option may appear.
enum class Forms : std::uint8_t { kBoth, kFlagOnly, kKeyOnly };

struct Option {
  std::string name;     // --name on the command line, `name =` in a file
  std::string metavar;  // value placeholder; empty = a switch (no value)
  std::string help;
  Setter set;
  Forms forms = Forms::kBoth;
  // A key form that reads differently from the flag form; empty when
  // `set` serves both.
  Setter key_set = nullptr;
};

// "invalid value '<value>' for <name>: <reason>", the one message for
// a rejected value.
[[nodiscard]] Status BadValue(std::string_view name, std::string_view value,
                              std::string_view reason);

// The allowed values of a numeric option: [min, max], or (min, max]
// when `min_open` (the "positive" ranges).
struct Range {
  double min = 0;
  double max = std::numeric_limits<double>::max();
  bool min_open = false;
};

inline constexpr Range kNonNegative{};
inline constexpr Range kPositive{0, std::numeric_limits<double>::max(), true};
inline constexpr Range kAtLeastOne{1};

// Durations are given in simulated seconds and must also convert to a
// SimDuration (int64 microseconds) without overflow.
enum class Unit : std::uint8_t { kPlain, kSeconds };

// The one number parser behind every numeric option. Pass `whole` for
// a plain decimal integer (never routed through a double, so seeds keep
// all 63 bits) or `real` for a finite number; either way the value must
// lie inside `range`. On failure returns the reason and stores nothing.
[[nodiscard]] std::optional<std::string> ParseNumber(std::string_view text,
                                                     Range range, Unit unit,
                                                     std::int64_t* whole,
                                                     double* real);

namespace internal {
template <typename T>
struct Unwrap {
  using type = T;
};
template <typename T>
struct Unwrap<std::optional<T>> {
  using type = T;
};
}  // namespace internal

// A numeric field, plain or std::optional: integral fields take
// integers, floating-point fields take finite reals.
template <typename Field>
Setter Number(Field* field, Range range, Unit unit = Unit::kPlain) {
  return [field, range, unit](std::string_view name,
                              const std::string& value) {
    using Value = typename internal::Unwrap<Field>::type;
    constexpr bool kIntegral = std::is_integral_v<Value>;
    std::int64_t whole = 0;
    double real = 0;
    if (const auto reason =
            ParseNumber(value, range, unit, kIntegral ? &whole : nullptr,
                        kIntegral ? nullptr : &real)) {
      return BadValue(name, value, *reason);
    }
    if constexpr (kIntegral) {
      *field = static_cast<Value>(whole);
    } else {
      *field = real;
    }
    return Status::Ok();
  };
}

// A bool field: true/false, yes/no, on/off or 1/0, in any case. A
// switch flag passes "true"; `when_set` = false makes the option store
// the negation (--no-profile).
Setter Bool(bool* field, bool when_set = true);

// A string field, stored verbatim.
Setter Text(std::string* field);

// Applies command-line arguments in order. A switch takes no value;
// "-h" is read as "--help".
[[nodiscard]] Status ApplyFlags(const std::vector<Option>& table,
                                const std::vector<std::string>& args);

// Applies every top-level key of `config` through the table. The one
// section allowed (`[section]`, keys "section.*") is left to the
// caller. `source` names the file in unknown-key errors.
[[nodiscard]] Status ApplyKeys(const std::vector<Option>& table,
                               const Config& config, std::string_view section,
                               std::string_view source);

// --help text: `intro`, one entry per option, then `outro`.
[[nodiscard]] std::string Help(const std::vector<Option>& table,
                               std::string_view intro,
                               std::string_view outro);

// 2 for a rejected argument or value, 1 for input that could not be
// read.
[[nodiscard]] int ExitCode(const Status& status);

}  // namespace actyp::cli
