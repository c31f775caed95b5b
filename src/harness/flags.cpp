#include "harness/flags.h"

#include <cstdlib>

namespace pandas::harness {
namespace {

[[noreturn]] void fail(std::string_view flag, const std::string& reason) {
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(flag.size()),
               flag.data(), reason.c_str());
  std::exit(2);
}

/// Milliseconds accepted by Flags::millis(): one hour.
constexpr std::int64_t kMaxMillis = 3'600'000;

}  // namespace

void Flags::flag(std::string name, bool& dst, std::string help) {
  declare(std::move(name), "", std::move(help), "",
          [&dst](std::string_view) { return dst = true; });
}

void Flags::millis(std::string name, sim::Time& dst, std::string help) {
  declare(std::move(name), "MS", help + " [0, " + show(kMaxMillis) + "]",
          show(dst / sim::kMillisecond), [&dst](std::string_view v) {
            std::int64_t ms = 0;
            if (!parse_number<std::int64_t>(v, 0, kMaxMillis, ms)) return false;
            dst = ms * sim::kMillisecond;
            return true;
          });
}

void Flags::path(std::string name, std::string& dst, std::string help) {
  declare(std::move(name), "FILE", std::move(help), dst,
          [&dst](std::string_view v) {
            dst = v;
            return true;
          });
}

void Flags::choice(std::string name, std::string& dst,
                   std::vector<std::string> choices, std::string help) {
  for (std::size_t i = 0; i < choices.size(); ++i) {
    help += (i == 0 ? " " : "|") + choices[i];
  }
  declare(std::move(name), "NAME", std::move(help), dst,
          [&dst, choices = std::move(choices)](std::string_view v) {
            for (const auto& c : choices) {
              if (v == c) {
                dst = c;
                return true;
              }
            }
            return false;
          });
}

std::string Flags::show_double(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

void Flags::declare(std::string name, std::string metavar, std::string help,
                    const std::string& fallback,
                    std::function<bool(std::string_view)> set) {
  if (!metavar.empty() && !fallback.empty()) {
    help += " (default " + fallback + ")";
  }
  specs_.push_back(
      {std::move(name), std::move(metavar), std::move(help), std::move(set)});
}

std::size_t Flags::index_of(std::string_view name) const {
  std::size_t i = 0;
  while (i < specs_.size() && specs_[i].name != name) ++i;
  return i;
}

void Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--help") continue;
    std::string_view program = argv[0];
    program.remove_prefix(program.rfind('/') + 1);  // npos + 1 == 0
    print_help(stdout, program);
    std::exit(0);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t at = index_of(arg);
    if (at == specs_.size()) fail(arg, "unknown flag (--help lists the flags)");
    Spec& s = specs_[at];
    if (s.given) fail(arg, "given twice");
    s.given = true;
    if (!s.metavar.empty()) {
      if (i + 1 == argc) fail(arg, "missing value");
      s.value = argv[++i];
      if (s.value.starts_with("--")) {
        fail(arg, "missing value (next is the flag '" + s.value + "')");
      }
    }
    if (!s.set(s.value)) fail(arg, "bad value '" + s.value + "'");
  }
  for (const auto& s : specs_) {
    if (!s.given && s.when_absent) s.when_absent();
  }
  for (const auto& fn : then_) fn();
}

void Flags::reject(std::string_view name) const {
  fail(name, "bad value '" + specs_.at(index_of(name)).value + "'");
}

void Flags::print_help(std::FILE* out, std::string_view program) const {
  std::fprintf(out, "usage: %.*s [flags]\n", static_cast<int>(program.size()),
               program.data());
  for (const auto& s : specs_) {
    const std::string head =
        s.name + (s.metavar.empty() ? "" : " ") + s.metavar;
    std::fprintf(out, "  %-26s %s\n", head.c_str(), s.help.c_str());
  }
  std::fprintf(out, "  %-26s %s\n", "--help", "print this table and exit");
}

}  // namespace pandas::harness
