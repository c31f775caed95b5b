#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

/// Minimal command-line parsing for the bench binaries:
///   --nodes N  --slots N  --seed N  --quick  --policy NAME  --no-boost ...
namespace pandas::harness {

class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] bool has(const std::string& flag) const {
    for (int i = 1; i < argc_; ++i) {
      if (flag == argv_[i]) return true;
    }
    return false;
  }

  /// The flag's value as a whole base-10 integer. A malformed or
  /// out-of-range value ("1k", "3.5", "", 2^63) prints `<flag>: bad value
  /// '<v>'` to stderr and exits 2 instead of running with a guessed number.
  [[nodiscard]] std::int64_t get_int(const std::string& flag,
                                     std::int64_t fallback) const {
    for (int i = 1; i + 1 < argc_; ++i) {
      if (flag != argv_[i]) continue;
      const char* v = argv_[i + 1];
      char* end = nullptr;
      errno = 0;
      const long long x = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || errno == ERANGE) bad_value(flag, v);
      return x;
    }
    return fallback;
  }

  /// The flag's value as a whole finite number; malformed or out-of-range
  /// values exit 2 like get_int().
  [[nodiscard]] double get_double(const std::string& flag, double fallback) const {
    for (int i = 1; i + 1 < argc_; ++i) {
      if (flag != argv_[i]) continue;
      const char* v = argv_[i + 1];
      char* end = nullptr;
      errno = 0;
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(x)) {
        bad_value(flag, v);
      }
      return x;
    }
    return fallback;
  }

  /// get_int() / get_double() confined to [lo, hi]: a value outside the
  /// range exits 2 like a malformed one.
  [[nodiscard]] std::int64_t get_int(const std::string& flag,
                                     std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi) const {
    const std::int64_t x = get_int(flag, fallback);
    if (x < lo || x > hi) reject(flag);
    return x;
  }
  [[nodiscard]] double get_double(const std::string& flag, double fallback,
                                  double lo, double hi) const {
    const double x = get_double(flag, fallback);
    if (x < lo || x > hi) reject(flag);
    return x;
  }

  [[nodiscard]] std::string get_str(const std::string& flag,
                                    const std::string& fallback) const {
    for (int i = 1; i + 1 < argc_; ++i) {
      if (flag == argv_[i]) return argv_[i + 1];
    }
    return fallback;
  }

  /// Rejects the value given for `flag` (well-formed but unusable, e.g. in
  /// combination with other flags): prints `<flag>: bad value '<v>'` and
  /// exits 2.
  [[noreturn]] void reject(const std::string& flag) const {
    bad_value(flag, get_str(flag, "").c_str());
  }

 private:
  [[noreturn]] static void bad_value(const std::string& flag, const char* v) {
    std::fprintf(stderr, "%s: bad value '%s'\n", flag.c_str(), v);
    std::exit(2);
  }

  int argc_;
  char** argv_;
};

}  // namespace pandas::harness
