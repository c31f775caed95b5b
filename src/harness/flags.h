#pragma once

#include <charconv>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.h"

/// Declared command-line flags for the bench binaries and examples. A binary
/// declares each flag once — its name, the variable that holds its default
/// and receives its value, its range or choice set and its help line — and
/// then calls parse(), which reads argv strictly:
///   - `--help` prints the declared table on stdout and exits 0;
///   - an unknown flag, a flag given twice, a missing value (or a value that
///     is itself a `--flag`), and a malformed or out-of-range value print
///     `<flag>: <reason>` on stderr and exit 2.
/// Declared variables must stay alive, and must not move, until parse()
/// returns.
namespace pandas::harness {

class Flags {
 public:
  /// A switch: `dst` becomes true when the flag is given.
  void flag(std::string name, bool& dst, std::string help);

  /// A number in [lo, hi]: whole and base-10 for integer types.
  template <typename T>
  void add(std::string name, T& dst, std::string help,
           T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max()) {
    if (lo != std::numeric_limits<T>::lowest() ||
        hi != std::numeric_limits<T>::max()) {
      help.append(" [").append(show(lo)).append(", ").append(show(hi)) += ']';
    }
    declare(std::move(name), std::is_integral_v<T> ? "N" : "X",
            std::move(help), show(dst), [&dst, lo, hi](std::string_view v) {
              return parse_number(v, lo, hi, dst);
            });
  }

  /// A fraction in [0, 1].
  void fraction(std::string name, double& dst, std::string help) {
    add(std::move(name), dst, std::move(help), 0.0, 1.0);
  }

  /// A duration given in whole milliseconds, from 0 to one hour.
  void millis(std::string name, sim::Time& dst, std::string help);

  /// A file path.
  void path(std::string name, std::string& dst, std::string help);

  /// One of `choices`.
  void choice(std::string name, std::string& dst,
              std::vector<std::string> choices, std::string help);

  /// The declared flag `name` (bound to `dst`) takes `value` in place of its
  /// default when `quick` is set once parsing ends and `name` was not given.
  template <typename T>
  void quick_default(std::string_view name, T& dst, const bool& quick,
                     T value) {
    Spec& s = specs_.at(index_of(name));
    // Before the closing parenthesis of "(default <x>)".
    s.help.insert(s.help.size() - 1,
                  show(value).insert(0, "; ") + " with --quick");
    s.when_absent = [&dst, &quick, value] {
      if (quick) dst = value;
    };
  }

  /// Runs `fn` after a successful parse, in registration order: checks that
  /// span several flags, and work that must fail before any run starts.
  void then(std::function<void()> fn) { then_.push_back(std::move(fn)); }

  /// Fills every declared variable from argv, or exits as described above.
  void parse(int argc, const char* const* argv);

  /// Prints `<name>: bad value '<v>'` for the value given to `name` and
  /// exits 2: a well-formed value that other flags make unusable.
  [[noreturn]] void reject(std::string_view name) const;

  /// Writes the usage line and the flag table.
  void print_help(std::FILE* out, std::string_view program) const;

 private:
  struct Spec {
    std::string name;
    std::string metavar;  // empty for a switch
    std::string help;     // with the range or choices and the default
    std::function<bool(std::string_view)> set;  // false: bad value
    std::function<void()> when_absent{};
    std::string value{};  // as given
    bool given = false;
  };

  template <typename T>
  static bool parse_number(std::string_view v, T lo, T hi, T& dst) {
    T x{};
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, x);
    // The negated test also rejects NaN; finite bounds reject infinities.
    if (ec != std::errc{} || end != last || !(x >= lo && x <= hi)) {
      return false;
    }
    dst = x;
    return true;
  }
  template <typename T>
  static std::string show(T x) {
    if constexpr (std::is_integral_v<T>) return std::to_string(x);
    else return show_double(x);
  }
  static std::string show_double(double x);

  /// Appends " (default <fallback>)" to a value flag's help unless empty.
  void declare(std::string name, std::string metavar, std::string help,
               const std::string& fallback,
               std::function<bool(std::string_view)> set);
  /// Position of `name` in specs_; specs_.size() when undeclared.
  [[nodiscard]] std::size_t index_of(std::string_view name) const;

  std::vector<Spec> specs_;
  std::vector<std::function<void()>> then_;
};

}  // namespace pandas::harness
